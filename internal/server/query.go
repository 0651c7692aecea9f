package server

import (
	"net/url"
	"strings"
)

// queryParam returns key's first value in the raw query string raw,
// exactly as url.ParseQuery(raw).Get(key) does. A query that holds no
// '%', '+' or ';' (every query url.Values.Encode writes over plain
// names) is scanned in place: the value is a substring of raw and
// nothing is allocated. Any other query goes to url.ParseQuery.
func queryParam(raw, key string) string {
	if strings.ContainsAny(raw, "%+;") {
		q, _ := url.ParseQuery(raw) // q holds every pair that parsed
		return q.Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key && pair != "" {
			return v
		}
	}
	return ""
}
