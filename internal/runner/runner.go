// Package runner schedules independent report cells across a worker
// pool deterministically. A cell is one exhibit evaluated over one
// workload; the experiment suite's exhibits are embarrassingly parallel
// across that grid, so the pool executes cells in any order while the
// caller pre-assigns each cell a result slot — merging is then a no-op
// and the merged report is byte-identical to a sequential run no matter
// how many workers raced.
//
// The runner itself never reads the wall clock (bplint's det-time rule
// bans it module-wide); anything that wants per-cell timing or metrics
// injects it through Options.Observer — RegistryObserver wires a cell's
// lifecycle into an obs.Registry, and benchmarks hang their own timing
// closures off the same hook.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"branchcorr/internal/obs"
)

// RunFunc executes one cell's work. Implementations write their result
// into a slot owned exclusively by this cell (e.g. a distinct slice
// index) so no synchronization is needed on the result side.
type RunFunc func(ctx context.Context) error

// Cell is one independently executable unit of a report: one exhibit
// evaluated over one workload.
type Cell struct {
	// Exhibit is the canonical exhibit name (e.g. "fig4").
	Exhibit string
	// Workload is the benchmark the cell covers (e.g. "gcc"); exhibits
	// without a per-workload decomposition may leave it empty.
	Workload string
	// Run performs the work.
	Run RunFunc
}

// String identifies the cell for error messages, e.g. "fig4/gcc".
func (c Cell) String() string {
	if c.Workload == "" {
		return c.Exhibit
	}
	return c.Exhibit + "/" + c.Workload
}

// Observer receives cell lifecycle events: it is invoked on the worker
// goroutine immediately before a cell runs and returns the function
// invoked (with the cell's error, nil on success) when it finishes. It
// generalizes the old Wrap hook — timing, tracing, and metrics all hang
// off the same two points — and must be safe for concurrent use; the
// returned closure carries any per-cell state (start times, spans), so
// no cross-cell bookkeeping is needed.
type Observer func(c Cell) func(err error)

// Options configures a pool run.
type Options struct {
	// Parallel is the number of worker goroutines; 0 or negative selects
	// runtime.GOMAXPROCS(0). The pool never spawns more workers than
	// there are cells.
	Parallel int
	// Observer, if non-nil, observes every cell's execution (span start
	// and end with the cell's identity). See RegistryObserver for the
	// obs-backed implementation and Chain for stacking several.
	Observer Observer
}

// RegistryObserver returns an Observer instrumenting cell execution into
// reg: counters runner.cells.started, runner.cells.finished, and
// runner.cells.failed, plus one duration histogram per exhibit
// ("runner.cell.<exhibit>.ns"). Cell counts are deterministic for a
// given report at every parallelism level; only the histogram durations
// vary (and only when a clock is installed).
func RegistryObserver(reg *obs.Registry) Observer {
	reg = obs.Or(reg)
	return func(c Cell) func(error) {
		reg.Counter("runner.cells.started").Inc()
		span := reg.StartSpan("runner.cell." + c.Exhibit)
		return func(err error) {
			span.End()
			if err != nil {
				reg.Counter("runner.cells.failed").Inc()
			} else {
				reg.Counter("runner.cells.finished").Inc()
			}
		}
	}
}

// Chain combines observers, invoking them in order (and their end
// callbacks in reverse order, innermost first). nil entries are skipped;
// chaining zero non-nil observers yields nil.
func Chain(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(c Cell) func(error) {
		ends := make([]func(error), len(live))
		for i, o := range live {
			ends[i] = o(c)
		}
		return func(err error) {
			for i := len(ends) - 1; i >= 0; i-- {
				if ends[i] != nil {
					ends[i](err)
				}
			}
		}
	}
}

// Run executes the cells across a worker pool and blocks until every
// started cell has finished. Workers claim cells in slice order, so at
// Parallel=1 execution order is exactly the canonical (sequential)
// order.
//
// The first cell error cancels the pool's context: cells not yet
// started are skipped, and the error of the earliest cell (in slice
// order) that actually ran and failed is returned, wrapped with the
// cell's identity. A cell that failed with context.Canceled most likely
// only saw the pool's cancellation, so the earliest other error wins
// over it; the earliest error is the fallback. If the parent context is
// cancelled externally, Run returns its error after the in-flight cells
// drain.
func Run(ctx context.Context, cells []Cell, opts Options) error {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if len(cells) == 0 {
		return ctx.Err()
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next atomic.Int64 // index of the next unclaimed cell
		errs = make([]error, len(cells))
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				if poolCtx.Err() != nil {
					return // pool aborted: leave remaining cells unrun
				}
				var end func(error)
				if opts.Observer != nil {
					end = opts.Observer(cells[i])
				}
				err := cells[i].Run(poolCtx)
				if end != nil {
					end(err)
				}
				if err != nil {
					errs[i] = fmt.Errorf("runner: cell %s: %w", cells[i], err)
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return ctx.Err()
}
