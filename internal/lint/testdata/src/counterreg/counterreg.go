// Package server is the counterreg analyzer's golden fixture, loaded
// under an import path ending in internal/server so the route-table
// rule applies: a registration from the table is clean, one with a
// literal pattern bypasses the table and is flagged.
package server

import "net/http"

type route struct {
	pattern string
	h       http.HandlerFunc
}

func register(mux *http.ServeMux) {
	routes := []route{{pattern: "/specs", h: serve}}
	for i := range routes {
		rt := &routes[i]
		mux.HandleFunc(rt.pattern, rt.h)
	}
	mux.HandleFunc("/orphan", serve) //lintwant counterreg
}

func serve(w http.ResponseWriter, r *http.Request) {}
