package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// FuzzAppendJSONString pins the writer's one string escaper to
// json.Marshal for any string. The seeds are the escaping cases: quote,
// backslash, the HTML bytes, control bytes, U+2028/U+2029, invalid
// UTF-8 and DEL.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "é",
		"\u2028", "\u2029", "\xff", "bad\xffutf8", "a\tb\nc\rd\be\ff", `q"uote<tag>a&b`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONString(%q) = %q, want x%q", s, got, want)
		}
	})
}

// TestJSONWriterFloat pins float to encoding/json's format on both
// sides of its 'f'/'e' switch.
func TestJSONWriterFloat(t *testing.T) {
	for _, v := range []float64{0, 1e-7, 12.75, 1e21} {
		rec := httptest.NewRecorder()
		respond().float("v", v).send(rec, 200)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]float64{"v": v}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("float(%g) = %q, want %q", v, got, want.String())
		}
	}
}
