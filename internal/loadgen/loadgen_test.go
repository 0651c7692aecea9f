package loadgen

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(50, 0.99)
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if x, y := z.Next(a), z.Next(b); x != y {
			t.Fatalf("draw %d: same seed diverged: %d vs %d", i, x, y)
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	const (
		n     = 100
		draws = 200_000
		theta = 1.0
	)
	z := NewZipf(n, theta)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.Next(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// At theta=1 the head's share is 1/H(n); H(100) ~ 5.187, so rank 0
	// should take ~19.3% of all draws.
	want := 1 / harmonic(n, theta)
	got := float64(counts[0]) / draws
	if math.Abs(got-want) > 0.02 {
		t.Errorf("rank-0 share = %.3f, want %.3f +/- 0.02", got, want)
	}
	// Popularity must fall off with rank (sampled at a stride so
	// statistical wobble between neighbors doesn't flake).
	if !(counts[0] > counts[5] && counts[5] > counts[20] && counts[20] > counts[80]) {
		t.Errorf("popularity not decreasing: c0=%d c5=%d c20=%d c80=%d",
			counts[0], counts[5], counts[20], counts[80])
	}
	// Every rank must be reachable at this draw count.
	for r, c := range counts {
		if c == 0 {
			t.Errorf("rank %d never drawn", r)
		}
	}
}

func TestZipfUniformAtThetaZero(t *testing.T) {
	const n, draws = 10, 100_000
	z := NewZipf(n, 0)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next(rng)]++
	}
	for r, c := range counts {
		share := float64(c) / draws
		if math.Abs(share-0.1) > 0.01 {
			t.Errorf("theta=0 rank %d share = %.3f, want 0.1 +/- 0.01", r, share)
		}
	}
}

func harmonic(n int, theta float64) float64 {
	s := 0.0
	for i := 1; i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(3))
	// 1..100000 ns, shuffled: true quantile q is q*100000.
	perm := rng.Perm(100_000)
	for _, v := range perm {
		h.Record(int64(v + 1))
	}
	if h.Count() != 100_000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50_000}, {0.95, 95_000}, {0.99, 99_000}} {
		got := float64(h.Quantile(tc.q))
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.06 {
			t.Errorf("q%.2f = %.0f, want %.0f +/- 6%% (off by %.1f%%)", tc.q, got, tc.want, rel*100)
		}
	}
	if h.Max() != 100_000 {
		t.Errorf("max = %d, want exact 100000", h.Max())
	}
	if h.Min() != 1 {
		t.Errorf("min = %d, want exact 1", h.Min())
	}
	if got := h.Quantile(1); got != 100_000 {
		t.Errorf("q1 = %d, want clamped to exact max", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %d, want clamped to exact min", got)
	}
	if mean := h.Mean(); math.Abs(mean-50_000.5) > 0.01 {
		t.Errorf("mean = %f, want exact 50000.5", mean)
	}
}

func TestHistMergeMatchesSingle(t *testing.T) {
	var whole, a, b Hist
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50_000; i++ {
		v := int64(rng.Intn(10_000_000) + 1)
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.Min() != whole.Min() {
		t.Fatalf("merge lost samples: count %d/%d max %d/%d min %d/%d",
			a.Count(), whole.Count(), a.Max(), whole.Max(), a.Min(), whole.Min())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%.2f: merged %d != whole %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("reachable=80,batch=15,put=4,delete=1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Reachable != 80 || m.Batch != 15 || m.Lineage != 0 || m.Put != 4 || m.Delete != 1 {
		t.Errorf("parsed %+v", m)
	}
	for _, bad := range []string{"", "reachable=0", "bogus=5", "reachable", "reachable=-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

// An unknown scheme is refused, not created as a directory named after
// the URL.
func TestOpenOrCreateStoreRefusesUnknownScheme(t *testing.T) {
	t.Chdir(t.TempDir())
	_, _, err := OpenOrCreateStore("shard://a,b", spec.PaperSpec(), "paper")
	if err == nil || !strings.Contains(err.Error(), `unknown store URL scheme "shard"`) {
		t.Fatalf("OpenOrCreateStore(shard://a,b) = %v, want an unknown-scheme error", err)
	}
	if entries, _ := os.ReadDir("."); len(entries) != 0 {
		t.Fatalf("a refused URL left %v behind", entries)
	}
}
