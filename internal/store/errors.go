package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"syscall"
)

// ErrTransient marks a backend error as transient: the operation failed
// for a reason that may clear on its own (an overloaded disk, a flaky
// network hop to a remote tier, an injected test fault), so retrying the
// same call may succeed. It is the error-classification half of the
// failure model (the retry wrapper and the serving layer's circuit
// breaker are the policy half): backends wrap transient failures so
// errors.Is(err, ErrTransient) holds, and leave permanent conditions —
// a missing blob (fs.ErrNotExist), a closed backend, corrupt content —
// unmarked.
//
// The contract has one sharp edge, the append path: AppendEventLog is
// not idempotent, so a backend must only classify an append error as
// transient when it can guarantee NO bytes were appended — an ambiguous
// failure (error from write or fsync, where a partial tail may have
// landed) must stay unmarked, leaving it to the streaming layer's
// broken-session recovery instead of a blind retry that would duplicate
// events. The same rule applies to DeleteRun: transient means
// side-effect-free, so a retry observes the same pre-state. WriteRun,
// WriteSpec and WriteMeta are whole-blob overwrites and therefore
// always safe to retry, partial effects or not.
var ErrTransient = errors.New("transient storage error")

// Transient wraps err so IsTransient reports true for it (and for
// anything wrapping the result). A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is a transient backend error worth
// retrying: explicitly marked with ErrTransient, or an OS-level
// condition that clears on its own (timeouts, interrupted or
// would-block syscalls — the classes a loaded filesystem or network
// mount surfaces). Not-exist, permission and corruption errors are
// permanent: retrying them is pure added latency.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false
	}
	return os.IsTimeout(err) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// InvalidRunError is a run, or a run document, that is no run of the
// store's specification: the document does not decode, or the run fails
// run.Validate, or its execution plan cannot be built, or its data items
// do not fit it, or a run put from memory has a data item with an empty
// name, which its canonical encoding cannot hold. The caller's input is
// at fault, not the store, and nothing was written.
type InvalidRunError struct{ Err error }

func (e *InvalidRunError) Error() string { return e.Err.Error() }
func (e *InvalidRunError) Unwrap() error { return e.Err }
