package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path"

	"quickr/internal/pool"
)

// Typed execution errors: a query interrupted by its context reports
// which limit stopped it. Cancellation is checked between partition
// tasks in the shared worker pool and at every batch boundary inside
// fused pipelines, so a canceled query unwinds within one batch.
var (
	// ErrCanceled is returned when the query's context was canceled.
	ErrCanceled = errors.New("exec: query canceled")
	// ErrDeadline is returned when the query's context deadline passed.
	ErrDeadline = errors.New("exec: query deadline exceeded")
	// ErrInternal is returned, wrapped with the panic value and where it
	// was raised, when a partition task panicked: an executor bug fails
	// its query, not the process.
	ErrInternal = errors.New("exec: internal error")
)

// mapCtxErr converts context errors into the typed query errors and a
// task's panic into ErrInternal, passing every other error through
// unchanged.
func mapCtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	}
	return internalErr(err)
}

// internalErr maps a task's panic to ErrInternal. It is apart from
// mapCtxErr, which runs at every batch boundary, because the target
// errors.As writes escapes to the heap.
func internalErr(err error) error {
	var pe *pool.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("%w: %v at %s", ErrInternal, pe.Value, execFrame(pe.Stack))
	}
	return err
}

// execFrame returns the innermost frame of this package in a
// debug.Stack trace, as "function (file:line)", or "unknown".
func execFrame(stack []byte) string {
	const pkg = "quickr/internal/exec."
	lines := bytes.Split(stack, []byte("\n"))
	for i, l := range lines {
		if !bytes.HasPrefix(l, []byte(pkg)) || i+1 == len(lines) {
			continue
		}
		fn := l[:max(bytes.LastIndexByte(l, '('), 0)]
		if len(fn) == 0 {
			fn = l
		}
		loc := bytes.TrimSpace(lines[i+1])
		if sp := bytes.IndexByte(loc, ' '); sp >= 0 {
			loc = loc[:sp] // the "+0x…" pc offset
		}
		return fmt.Sprintf("%s (%s)", fn[len("quickr/internal/"):], path.Base(string(loc)))
	}
	return "unknown"
}

// ctxErr reports the typed error for a done context, or nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return mapCtxErr(ctx.Err())
}
