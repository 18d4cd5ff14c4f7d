package campaign

import (
	"errors"
	"fmt"
	"time"

	"kfi/internal/inject"
)

// Per-injection supervision: every injection attempt runs under recover()
// panic isolation and a wall-clock watchdog, and is retried with exponential
// backoff from a fresh snapshot restore. An injection that fails every
// attempt is recorded as inject.OQuarantined with its diagnostics instead of
// aborting the campaign — at the paper's scale (>115,000 injections per
// platform) a single harness bug or pathological target must cost one
// experiment, not the whole run.

// Supervision policy defaults (see ExecOptions).
const (
	defaultMaxAttempts      = 3
	defaultInjectionTimeout = 2 * time.Minute
	defaultRetryBackoff     = 2 * time.Millisecond
)

// supervision is the resolved per-injection supervision policy.
type supervision struct {
	maxAttempts int
	timeout     time.Duration
	backoff     time.Duration
}

// supervision resolves the ExecOptions supervision fields to their defaults.
func (o ExecOptions) supervision() supervision {
	s := supervision{
		maxAttempts: o.MaxAttempts,
		timeout:     o.injectionTimeout,
		backoff:     o.retryBackoff,
	}
	if s.maxAttempts <= 0 {
		s.maxAttempts = defaultMaxAttempts
	}
	if s.timeout == 0 {
		s.timeout = defaultInjectionTimeout
	}
	if s.backoff <= 0 {
		s.backoff = defaultRetryBackoff
	}
	return s
}

// errNodeDown is the simulated-node-loss sentinel the farm's test hook
// returns: the node is gone SIGKILL-style, its unfinished work must return
// to the steal queue, and a replacement node takes over.
var errNodeDown = errors.New("campaign: node lost")

// nodeLostError carries a dead node's unfinished work back to the executor's
// supervisor, including the entry that was in flight when the node died.
type nodeLostError struct {
	remaining []trigOrder
	cause     error
}

func (e *nodeLostError) Error() string {
	return fmt.Sprintf("campaign: node lost with %d injections unfinished: %v", len(e.remaining), e.cause)
}

func (e *nodeLostError) Unwrap() error { return e.cause }

// attemptOutcome is one supervised attempt's result.
type attemptOutcome struct {
	res      inject.Result
	err      error
	panicked bool
	diag     string
}

// superviseAttempt runs fn under panic isolation and, when timeout > 0, a
// wall-clock watchdog. A timeout abandons the attempt goroutine (and with it
// the machine it owns — the caller must replace the machine before the next
// attempt); fn must therefore pin every bit of mutable context it uses
// before superviseAttempt is called, so an abandoned attempt can never touch
// a successor's state.
//
// The captured panic diagnostic is the panic value only — deliberately no
// stack addresses or goroutine ids — so quarantined results are
// deterministic and resume-equivalence holds bit-for-bit.
func superviseAttempt(timeout time.Duration, fn func() (inject.Result, error)) (out attemptOutcome, timedOut bool) {
	ch := make(chan attemptOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- attemptOutcome{panicked: true, diag: fmt.Sprintf("panic: %v", p)}
			}
		}()
		res, err := fn()
		ch <- attemptOutcome{res: res, err: err}
	}()
	if timeout <= 0 {
		return <-ch, false
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out, false
	case <-timer.C:
		return attemptOutcome{}, true
	}
}

// quarantinedResult records an injection whose every supervised attempt
// failed. The guest outcome is unknowable, so none of the paper's
// failure-distribution columns apply; the diagnostics travel with the result
// into journals and reports.
func quarantinedResult(t inject.Target, attempts int, diag string) inject.Result {
	return inject.Result{
		Target:          t,
		ActivationKnown: t.Campaign != inject.CampSysReg,
		Outcome:         inject.OQuarantined,
		Diag:            fmt.Sprintf("quarantined after %d attempts: %s", attempts, diag),
	}
}
