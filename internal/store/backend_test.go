package store_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/store/backendtest"
)

// Every shipped backend passes the same conformance suite.

func TestFSBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) store.Backend {
		return store.NewFSBackend(t.TempDir())
	})
}

func TestMemBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) store.Backend {
		return store.NewMemBackend()
	})
}

// The retry wrapper must be contract-transparent: a conformance pass
// over a wrapped mem backend shows retries never change semantics on a
// healthy substrate.
func TestRetryBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) store.Backend {
		return store.WithRetry(store.NewMemBackend(), store.RetryPolicy{})
	})
}
