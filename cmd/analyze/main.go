// Command analyze produces a "why is this workload predictable" report
// for one trace: overall accuracies, per-address class distribution,
// predictability ceilings, the hardest branches with their
// oracle-discovered correlations, and the pipeline-performance impact.
// It is the paper's whole analysis pipeline pointed at a single program.
//
// Usage:
//
//	analyze -workload gcc -n 500000
//	analyze -trace mytrace.btr -top 5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/entropy"
	"branchcorr/internal/perfmodel"
	"branchcorr/internal/sim"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "BTR1 trace file to analyze")
		workload  = flag.String("workload", "", "generate this workload instead of reading a trace")
		n         = flag.Int("n", 500_000, "trace length when using -workload")
		top       = flag.Int("top", 5, "hardest branches to explain")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (all options are flags)", flag.Arg(0)))
	}

	tr, err := workloads.Load(*tracePath, *workload, *n)
	if err != nil {
		fatal(err)
	}
	stats := trace.Summarize(tr)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "== %s: %d dynamic branches over %d static sites, %.1f%% taken\n\n",
		tr.Name(), stats.Dynamic, stats.Static, 100*stats.TakenRate())

	// 1. Accuracy landscape.
	rs := sim.Simulate(tr, []bp.Predictor{
		bp.NewIdealStatic(stats),
		bp.NewBimodal(14),
		bp.NewGshare(16),
		bp.NewPAs(12, 10, 6),
		bp.NewIFGshare(16),
		bp.NewIFPAs(16),
		bp.NewHybrid(bp.NewGshare(16), bp.NewPAs(12, 10, 6), 12),
	}, sim.Options{}).Results
	fmt.Fprintln(w, "predictor accuracies:")
	for _, r := range rs {
		fmt.Fprintf(w, "  %-42s %8.4f%%\n", r.Predictor, 100*r.Accuracy())
	}
	gshare := rs[2]

	// 2. Per-address predictability classes (§4.1).
	cl := core.ClassifyPerAddress(tr, core.ClassifyConfig{})
	fmt.Fprintln(w, "\nper-address predictability classes (dynamic-weighted):")
	for c := core.ClassStatic; c <= core.ClassNonRepeating; c++ {
		fmt.Fprintf(w, "  %-22s %6.2f%%\n", c, 100*cl.Frac(c))
	}
	fmt.Fprintf(w, "  (%.0f%% of the unclassified branches are >99%% biased)\n",
		100*cl.StaticHighBiasFrac())

	// 3. Ceilings: how much predictability exists at all?
	local := entropy.LocalCeilings(tr, 12)
	global := entropy.GlobalCeilings(tr, 12)
	fmt.Fprintf(w, "\nstatic-table predictability ceilings (12-bit contexts):\n")
	fmt.Fprintf(w, "  local-history ceiling  %6.2f%%   (IF PAs achieves %.2f%%)\n",
		100*local.Weighted[12], 100*rs[5].Accuracy())
	fmt.Fprintf(w, "  global-history ceiling %6.2f%%   (IF gshare achieves %.2f%%)\n",
		100*global.Weighted[12], 100*rs[4].Accuracy())

	// 4. Hardest branches and their oracle-selected correlations (§3).
	type hard struct {
		pc     trace.Addr
		misses int
	}
	var hardest []hard
	for pc, b := range gshare.PerBranch {
		hardest = append(hardest, hard{pc, b.Total - b.Correct})
	}
	sort.Slice(hardest, func(i, j int) bool {
		if hardest[i].misses != hardest[j].misses {
			return hardest[i].misses > hardest[j].misses
		}
		return hardest[i].pc < hardest[j].pc
	})
	if *top > len(hardest) {
		*top = len(hardest)
	}
	sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{}})
	sel3 := sim.Simulate(tr, []bp.Predictor{core.NewSelective("sel3", 16, sels.BySize[3])}, sim.Options{}).Results[0]
	fmt.Fprintf(w, "\nhardest %d branches under gshare, with oracle-selected correlations:\n", *top)
	for _, h := range hardest[:*top] {
		fmt.Fprintf(w, "  0x%08x: gshare %.2f%%, class %s, 3-ref selective %.2f%% via",
			uint32(h.pc), 100*gshare.Branch(h.pc).Accuracy(),
			cl.Class[h.pc], 100*sel3.Branch(h.pc).Accuracy())
		for _, ref := range sels.BySize[3][h.pc] {
			fmt.Fprintf(w, " %s", ref)
		}
		fmt.Fprintln(w)
	}

	// 5. Warmup behavior: accuracy over time.
	bucket := tr.Len() / 16
	if bucket > 0 {
		tls := sim.Simulate(tr, []bp.Predictor{bp.NewGshare(16), bp.NewBimodal(14)}, sim.Options{BucketSize: bucket}).Timelines
		xs := make([]float64, len(tls[0].Accuracy))
		ys := make([][]float64, len(tls))
		names := make([]string, len(tls))
		for i := range xs {
			xs[i] = float64((i + 1) * bucket)
		}
		for pi, tl := range tls {
			names[pi] = tl.Predictor
			ys[pi] = make([]float64, len(tl.Accuracy))
			for i, a := range tl.Accuracy {
				ys[pi][i] = 100 * a
			}
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, textplot.Lines("accuracy over time (training behavior)", xs, names, ys, "accuracy %"))
	}

	// 6. What it means for the pipeline.
	m := perfmodel.DefaultMachine
	best := rs[6].Accuracy()
	fmt.Fprintf(w, "\npipeline impact (4-wide, 5-cycle flush): gshare IPC %.3f, hybrid IPC %.3f (%.2fx)\n",
		m.IPC(gshare.Accuracy()), m.IPC(best), m.Speedup(gshare.Accuracy(), best))
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
