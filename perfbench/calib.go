package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// The benchmark machine's speed drifts: a guest on a shared host runs
// for minutes at a time in one of several states, up to twice apart, and
// every workload slows alike. No run length averages that out, so the
// timed metrics are normalized to the machine's speed, measured by a
// fixed calibration workload run before the first timed sample and
// after each one. The calibration is the benchmark's own code and never
// calls the program, so a change to the program cannot move it.

// calibLanes is how many goroutines the calibration runs at once: the
// benchmark's two cores, which the workloads keep busy.
const calibLanes = 2

// calibRefSeconds is one calibration round's time in the host's fastest
// state seen on the benchmark machine (see README.md). A normalized time
// is a raw time times calibRefSeconds over the run's median round:
// seconds as that state would have given them.
const calibRefSeconds = 0.12

// calibrate times one calibration round: calibLanes goroutines each run
// calibWork on their own tables, and the round takes as long as the
// slowest.
func calibrate() time.Duration {
	runtime.GC()
	var wg sync.WaitGroup
	sinks := make([]uint64, calibLanes)
	t0 := time.Now()
	for l := 0; l < calibLanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			sinks[l] = calibWork(uint64(l + 1))
		}(l)
	}
	wg.Wait()
	d := time.Since(t0)
	debug.FreeOSMemory()
	return d
}

// calibWork is a fixed amount of work shaped like the program's: a
// two-level predictor over a table of 2-bit counters indexed by history
// and a pseudo-random branch stream (data-dependent branches, table
// lookups in cache), a scan of a trace-sized buffer, and map updates
// keyed by address with allocation. Its result only keeps the compiler
// from dropping the work.
func calibWork(seed uint64) uint64 {
	const (
		tableBits = 16
		stream    = 18_000_000
		bufLen    = 1 << 20
		mapOps    = 900_000
	)
	r := splitmix64{s: seed}
	pht := make([]uint8, 1<<tableBits)
	buf := make([]uint32, bufLen)
	for i := range buf {
		buf[i] = uint32(r.next())
	}
	var hist, hits uint64
	x := r.next() | 1
	for i := 0; i < stream; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := uint64(buf[i&(bufLen-1)]) & 0xfff
		taken := (x>>60)&3 != 0 || addr&7 == 0
		idx := (hist ^ addr<<4) & (1<<tableBits - 1)
		c := pht[idx]
		if (c >= 2) == taken {
			hits++
		}
		if taken {
			if c < 3 {
				pht[idx] = c + 1
			}
			hist = hist<<1 | 1
		} else {
			if c > 0 {
				pht[idx] = c - 1
			}
			hist <<= 1
		}
	}
	m := make(map[uint64]*[2]uint32)
	for i := 0; i < mapOps; i++ {
		k := r.next() & 0x7fff
		p := m[k]
		if p == nil {
			p = new([2]uint32)
			m[k] = p
		}
		p[i&1]++
	}
	return hits + uint64(len(m))
}

// calibratedRun records the calibration rounds of one run. Samples are
// taken between calibration points, and every timed metric is scaled by
// the run's median round: a median over several points, so one round
// caught in a moment's stall or a change of host state cannot move it.
type calibratedRun struct {
	rounds []time.Duration
}

const (
	// calibWarmup is how long a run keeps both cores busy with
	// calibration work before its first round. From idle, the machine
	// runs at about half speed for most of a second.
	calibWarmup = time.Second
	// calibPointRounds is how many rounds one calibration point takes.
	calibPointRounds = 3
)

// warm keeps the cores busy for calibWarmup, recording nothing.
func (c *calibratedRun) warm() {
	for t0 := time.Now(); time.Since(t0) < calibWarmup; {
		calibrate()
	}
}

// point runs one calibration point and records its rounds.
func (c *calibratedRun) point() {
	for i := 0; i < calibPointRounds; i++ {
		c.rounds = append(c.rounds, calibrate())
	}
}

// scale is the factor that normalizes the run's raw times to the
// reference speed.
func (c *calibratedRun) scale() float64 { return calibRefSeconds / median(durationsSeconds(c.rounds)) }

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
