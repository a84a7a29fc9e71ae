package trace

import "fmt"

// Interleave merges traces round-robin in chunks of quantum records,
// modeling the branch stream a predictor sees under context switching:
// every quantum the machine "switches" to the next program. Predictor
// state built for one program is polluted or evicted by the others —
// the multiprogramming effect that amplifies the interference the paper
// studies. Traces are consumed until all are exhausted (shorter traces
// simply stop contributing).
func Interleave(name string, quantum int, traces ...*Trace) *Trace {
	if quantum <= 0 {
		panic(fmt.Sprintf("trace: interleave quantum %d must be positive", quantum))
	}
	if len(traces) == 0 {
		return New(name, 0)
	}
	views := make([]*Packed, len(traces))
	total := 0
	for i, t := range traces {
		views[i] = t.Packed()
		total += t.Len()
	}
	out := New(name, total)
	offsets := make([]int, len(traces))
	for out.Len() < total {
		for i, p := range views {
			end := min(offsets[i]+quantum, p.Len())
			for ; offsets[i] < end; offsets[i]++ {
				out.Append(p.Record(offsets[i]))
			}
		}
	}
	return out
}
