package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"branchcorr/internal/obs"
)

// cellsFilling returns n cells that each write their index into out.
func cellsFilling(out []int) []Cell {
	cells := make([]Cell, len(out))
	for i := range out {
		i := i
		cells[i] = Cell{
			Exhibit:  fmt.Sprintf("ex%d", i/4),
			Workload: fmt.Sprintf("w%d", i%4),
			Run: func(context.Context) error {
				out[i] = i
				return nil
			},
		}
	}
	return cells
}

func TestRunFillsEverySlot(t *testing.T) {
	for _, parallel := range []int{0, 1, 2, 8, 64} {
		out := make([]int, 37)
		for i := range out {
			out[i] = -1
		}
		if err := Run(context.Background(), cellsFilling(out), Options{Parallel: parallel}); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range out {
			if v != i {
				t.Fatalf("parallel=%d: slot %d = %d", parallel, i, v)
			}
		}
	}
}

func TestRunSequentialOrder(t *testing.T) {
	// At Parallel=1 cells must execute in exactly slice order.
	var order []int
	var cells []Cell
	for i := 0; i < 20; i++ {
		i := i
		cells = append(cells, Cell{Exhibit: "e", Run: func(context.Context) error {
			order = append(order, i)
			return nil
		}})
	}
	if err := Run(context.Background(), cells, Options{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v", order)
		}
	}
}

func TestRunNoCells(t *testing.T) {
	if err := Run(context.Background(), nil, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	// Two failing cells: the earliest in slice order that ran must be
	// the one reported, and its identity must be in the message.
	boom := errors.New("boom")
	cells := []Cell{
		{Exhibit: "a", Workload: "w", Run: func(context.Context) error { return nil }},
		{Exhibit: "b", Workload: "x", Run: func(context.Context) error { return boom }},
		{Exhibit: "c", Workload: "y", Run: func(context.Context) error { return errors.New("later") }},
	}
	err := Run(context.Background(), cells, Options{Parallel: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "b/x") {
		t.Fatalf("err %q lacks cell identity", err)
	}
}

func TestRunReportsCauseNotCancellation(t *testing.T) {
	// Cell 0 blocks until the pool is cancelled and returns the
	// cancellation; cell 1's failure caused it, so cell 1's error must be
	// reported although cell 0 comes first in slice order.
	boom := errors.New("boom")
	started := make(chan struct{})
	cells := []Cell{
		{Exhibit: "a", Workload: "w", Run: func(ctx context.Context) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		}},
		{Exhibit: "b", Workload: "x", Run: func(context.Context) error {
			<-started
			return boom
		}},
	}
	err := Run(context.Background(), cells, Options{Parallel: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "b/x") {
		t.Fatalf("err %q lacks the failing cell's identity", err)
	}
}

func TestRunErrorCancelsPool(t *testing.T) {
	// After a failure, unstarted cells must be skipped (sequentially the
	// failure at cell 0 means no later cell runs).
	var ran atomic.Int64
	cells := []Cell{
		{Exhibit: "fail", Run: func(context.Context) error { return errors.New("stop") }},
	}
	for i := 0; i < 50; i++ {
		cells = append(cells, Cell{Exhibit: "after", Run: func(context.Context) error {
			ran.Add(1)
			return nil
		}})
	}
	if err := Run(context.Background(), cells, Options{Parallel: 1}); err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d cells ran after the failure", n)
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	var cells []Cell
	for i := 0; i < 100; i++ {
		i := i
		cells = append(cells, Cell{Exhibit: "e", Run: func(context.Context) error {
			if i == 0 {
				cancel() // cancel mid-run from inside the first cell
			}
			ran.Add(1)
			return nil
		}})
	}
	err := Run(ctx, cells, Options{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d cells ran, want 1", n)
	}
}

func TestRunObserverSeesEveryCell(t *testing.T) {
	var mu sync.Mutex
	started := map[string]int{}
	ended := map[string]int{}
	out := make([]int, 12)
	opts := Options{
		Parallel: 3,
		Observer: func(c Cell) func(error) {
			mu.Lock()
			started[c.String()]++
			mu.Unlock()
			return func(err error) {
				mu.Lock()
				ended[c.String()]++
				mu.Unlock()
				if err != nil {
					t.Errorf("cell %s ended with unexpected error %v", c, err)
				}
			}
		},
	}
	if err := Run(context.Background(), cellsFilling(out), opts); err != nil {
		t.Fatal(err)
	}
	if len(started) != len(out) || len(ended) != len(out) {
		t.Fatalf("observer saw %d starts / %d ends, want %d of each", len(started), len(ended), len(out))
	}
	for id, n := range started {
		if n != 1 || ended[id] != 1 {
			t.Fatalf("cell %s observed %d starts / %d ends", id, n, ended[id])
		}
	}
}

// TestRunObserverSeesCellError checks the end callback receives the
// cell's error (the hook metrics and spans classify failures with).
func TestRunObserverSeesCellError(t *testing.T) {
	boom := errors.New("boom")
	var gotErr error
	cells := []Cell{{Exhibit: "x", Run: func(context.Context) error { return boom }}}
	opts := Options{Parallel: 1, Observer: func(Cell) func(error) {
		return func(err error) { gotErr = err }
	}}
	if err := Run(context.Background(), cells, opts); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if !errors.Is(gotErr, boom) {
		t.Fatalf("observer end saw %v, want boom", gotErr)
	}
}

// TestRegistryObserver checks the obs-backed observer's counters and the
// per-exhibit span histograms.
func TestRegistryObserver(t *testing.T) {
	reg := obs.New()
	out := make([]int, 6)
	opts := Options{Parallel: 2, Observer: RegistryObserver(reg)}
	if err := Run(context.Background(), cellsFilling(out), opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["runner.cells.started"] != 6 || snap.Counters["runner.cells.finished"] != 6 {
		t.Errorf("cell counters = %v, want 6 started and finished", snap.Counters)
	}
	if snap.Counters["runner.cells.failed"] != 0 {
		t.Errorf("failed = %d, want 0", snap.Counters["runner.cells.failed"])
	}
}

// TestChainObservers checks Chain composes observers in order, skips
// nils, and unwinds end callbacks innermost-first.
func TestChainObservers(t *testing.T) {
	if Chain(nil, nil) != nil {
		t.Error("Chain of nils should be nil")
	}
	var order []string
	mk := func(name string) Observer {
		return func(Cell) func(error) {
			order = append(order, name+"-start")
			return func(error) { order = append(order, name+"-end") }
		}
	}
	chained := Chain(mk("a"), nil, mk("b"))
	cells := []Cell{{Exhibit: "x", Run: func(context.Context) error { return nil }}}
	if err := Run(context.Background(), cells, Options{Parallel: 1, Observer: chained}); err != nil {
		t.Fatal(err)
	}
	want := "a-start b-start b-end a-end"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("chain order = %q, want %q", got, want)
	}
}

func TestCellString(t *testing.T) {
	if got := (Cell{Exhibit: "fig4", Workload: "gcc"}).String(); got != "fig4/gcc" {
		t.Errorf("String() = %q", got)
	}
	if got := (Cell{Exhibit: "table1"}).String(); got != "table1" {
		t.Errorf("String() = %q", got)
	}
}

// TestRunCellsOverlap proves the pool genuinely runs cells
// concurrently: two cells rendezvous with each other mid-run, which
// deadlocks (and times out the test) if the pool serialized them.
func TestRunCellsOverlap(t *testing.T) {
	a, b := make(chan struct{}), make(chan struct{})
	cells := []Cell{
		{Exhibit: "left", Run: func(context.Context) error {
			close(a)
			<-b
			return nil
		}},
		{Exhibit: "right", Run: func(context.Context) error {
			close(b)
			<-a
			return nil
		}},
	}
	if err := Run(context.Background(), cells, Options{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestRunConcurrentStress hammers the pool with many tiny cells under
// the race detector: every slot must be written exactly once and the
// shared counter must equal the cell count.
func TestRunConcurrentStress(t *testing.T) {
	var counter atomic.Int64
	out := make([]int, 500)
	cells := cellsFilling(out)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func(ctx context.Context) error {
			counter.Add(1)
			return inner(ctx)
		}
	}
	if err := Run(context.Background(), cells, Options{Parallel: 16}); err != nil {
		t.Fatal(err)
	}
	if counter.Load() != int64(len(cells)) {
		t.Fatalf("ran %d cells, want %d", counter.Load(), len(cells))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}
