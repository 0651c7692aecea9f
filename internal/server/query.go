package server

import (
	"net/url"
	"strings"
)

// queryParam returns key's first value in the raw query string raw,
// exactly as url.ParseQuery(raw).Get(key) does: pairs split on '&', a
// pair holding ';' or one whose key or value fails to unescape is
// skipped, and '+' and %XX decode. It builds no map and reads a pair of
// another key only up to its first byte that differs; it allocates only
// to unescape a value that holds '+' or '%'.
func queryParam(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		v, ok := queryValue(pair, key)
		if !ok || pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		if strings.IndexAny(v, "%+") < 0 {
			return v
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryValue reports whether pair's key (up to its first '=') is well
// formed and unescapes to key, decoding it byte by byte without a copy,
// and returns the still-escaped value after the '='.
func queryValue(pair, key string) (string, bool) {
	j := 0
	for i := 0; i < len(pair); j++ {
		c := pair[i]
		switch c {
		case '=':
			return pair[i+1:], j == len(key)
		case '+':
			c = ' '
			i++
		case '%':
			if i+2 >= len(pair) {
				return "", false
			}
			hi, okHi := unhex(pair[i+1])
			lo, okLo := unhex(pair[i+2])
			if !okHi || !okLo {
				return "", false
			}
			c = hi<<4 | lo
			i += 3
		default:
			i++
		}
		if j == len(key) || c != key[j] {
			return "", false
		}
	}
	return "", j == len(key)
}

// unhex decodes one hexadecimal digit.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
