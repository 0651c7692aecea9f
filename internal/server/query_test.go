package server

import (
	"net/url"
	"testing"
)

// queryKeys are the parameter names the handlers read.
var queryKeys = []string{"run", "from", "to", "vertex", "dir", "offset"}

// FuzzQueryOracle holds queryParam to url.ParseQuery: for any raw
// query and key, it must return what url.ParseQuery(raw).Get(key)
// returns, whether it scans raw in place or hands it over.
func FuzzQueryOracle(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"run=r1&from=b2&to=h1", "run"},
		{"run=a;b&run=c", "run"},
		{"from=x;y=z&from=w", "from"},
		{"to=%zz&to=ok", "to"},
		{"%zz=1&vertex=%41%2b", "vertex"},
		{"dir=up+down&dir=down", "dir"},
		{"&&run=&run=r2&", "run"},
		{"=&=x&offset=1&offset=2", "offset"},
		{"vertex=a=b=c", "vertex"},
		{"r%75n=x&run=y", "run"},
		{"a+b=1&a%20b=2", "a b"},
		{"k=%4", "k"},
		{"k=%", "k"},
		{"%3D=eq&=empty", "="},
		{"=empty", ""},
		{"run", "run"},
		{"", "run"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		q, _ := url.ParseQuery(raw) // the map holds every pair that parsed
		for _, k := range append(queryKeys, key) {
			if got, want := queryParam(raw, k), q.Get(k); got != want {
				t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, k, got, want)
			}
		}
	})
}

// TestQueryParamAllocs pins the in-place scan: a query with no '%', '+'
// or ';' costs no allocation, and its value is a substring of raw.
func TestQueryParamAllocs(t *testing.T) {
	for _, c := range []struct{ raw, key string }{
		{"run=r1&from=b2&to=h1", "to"},
		{"run=r1&from=b2&to=h1", "missing"},
		{"&&=x&run&run=r2", "run"},
	} {
		if got := testing.AllocsPerRun(100, func() { queryParam(c.raw, c.key) }); got != 0 {
			t.Errorf("queryParam(%q, %q): %v allocs, want 0", c.raw, c.key, got)
		}
	}
}
