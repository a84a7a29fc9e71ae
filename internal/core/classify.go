package core

import (
	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// PAClass is a per-address predictability class from section 4.1. A
// branch is classified by which class predictor achieves the highest
// accuracy for it — unless the ideal static predictor does at least as
// well, in which case the branch is left unclassified (ClassStatic).
type PAClass uint8

// The classes, in tie-breaking priority order (a branch equally well
// predicted by the loop and block predictors is a loop branch; repeating
// beats non-repeating on ties because it is the stronger claim).
const (
	ClassStatic PAClass = iota
	ClassLoop
	ClassRepeating
	ClassNonRepeating
	numPAClasses
)

// String implements fmt.Stringer.
func (c PAClass) String() string {
	switch c {
	case ClassStatic:
		return "ideal-static"
	case ClassLoop:
		return "loop"
	case ClassRepeating:
		return "repeating-pattern"
	case ClassNonRepeating:
		return "non-repeating-pattern"
	default:
		return "unknown"
	}
}

// PAClassification is the result of classifying one trace's branches by
// per-address predictability.
type PAClassification struct {
	// Class maps each static branch to its class.
	Class map[trace.Addr]PAClass
	// DynWeight is the dynamic execution weight per class.
	DynWeight [numPAClasses]int
	// Total is the trace's dynamic branch count.
	Total int
	// StaticHighBias is the dynamic weight of ClassStatic branches whose
	// bias exceeds 99% — the paper reports this share to show that most
	// unclassified branches are simply strongly biased.
	StaticHighBias int

	// Per-class predictor results, retained for the hypothetical
	// combiners (Table 3) and the Figure 8 categorization.
	Static *sim.Result // ideal static
	Loop   *sim.Result
	Block  *sim.Result
	IFPAs  *sim.Result
	Fixed  map[trace.Addr]bp.BestFixed
}

// Frac returns the dynamic fraction of branches in class c.
func (p *PAClassification) Frac(c PAClass) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.DynWeight[c]) / float64(p.Total)
}

// StaticHighBiasFrac returns, among ClassStatic dynamic weight, the share
// that is >99% biased.
func (p *PAClassification) StaticHighBiasFrac() float64 {
	if p.DynWeight[ClassStatic] == 0 {
		return 0
	}
	return float64(p.StaticHighBias) / float64(p.DynWeight[ClassStatic])
}

// RepeatingCorrect returns the repeating-pattern class's correct count
// for a branch: the better of the best fixed-length-pattern predictor and
// the block-pattern predictor, as in section 4.1.2.
func (p *PAClassification) RepeatingCorrect(pc trace.Addr) int {
	best := p.Block.Branch(pc).Correct
	if f, ok := p.Fixed[pc]; ok && f.Correct > best {
		best = f.Correct
	}
	return best
}

// PerAddressBestCorrect returns the best per-address-class correct count
// for a branch over all of section 4.1's predictors (loop, repeating,
// non-repeating), used as the per-address side of Figure 8.
func (p *PAClassification) PerAddressBestCorrect(pc trace.Addr) int {
	best := p.Loop.Branch(pc).Correct
	if c := p.RepeatingCorrect(pc); c > best {
		best = c
	}
	if c := p.IFPAs.Branch(pc).Correct; c > best {
		best = c
	}
	return best
}

// ClassifyConfig parameterizes per-address classification.
type ClassifyConfig struct {
	// IFPAsHistoryBits is the local history length of the non-repeating
	// class's interference-free PAs (default 16).
	IFPAsHistoryBits uint
	// HighBias is the bias threshold reported for unclassified branches
	// (default 0.99, the paper's ">99% biased").
	HighBias float64
	// Obs receives the classification's simulation counters and spans;
	// nil selects obs.Default(). The service threads a per-request
	// registry through here.
	Obs *obs.Registry
}

func (c ClassifyConfig) withDefaults() ClassifyConfig {
	if c.IFPAsHistoryBits == 0 {
		c.IFPAsHistoryBits = 16
	}
	if c.HighBias == 0 {
		c.HighBias = 0.99
	}
	return c
}

// ClassifyPerAddress runs all section 4.1 class predictors over the trace
// and assigns every static branch to a per-address predictability class,
// reproducing the method behind Figure 6.
func ClassifyPerAddress(t *trace.Trace, cfg ClassifyConfig) *PAClassification {
	cfg = cfg.withDefaults()
	stats := trace.Summarize(t)
	results := sim.Simulate(t, []bp.Predictor{
		bp.NewIdealStatic(stats),
		bp.NewLoop(),
		bp.NewBlock(),
		bp.NewIFPAs(cfg.IFPAsHistoryBits),
	}, sim.Options{Observer: cfg.Obs}).Results
	sweep := bp.NewFixedKSweep()
	pt := t.Packed()
	for i := range pt.Len() {
		sweep.Observe(pt.Record(i))
	}
	p := &PAClassification{
		Class:  make(map[trace.Addr]PAClass, len(stats.Sites)),
		Total:  t.Len(),
		Static: results[0],
		Loop:   results[1],
		Block:  results[2],
		IFPAs:  results[3],
		Fixed:  sweep.BestPerBranch(),
	}
	for pc, site := range stats.Sites {
		static := p.Static.Branch(pc).Correct
		loop := p.Loop.Branch(pc).Correct
		rep := p.RepeatingCorrect(pc)
		nonrep := p.IFPAs.Branch(pc).Correct

		class := ClassLoop
		best := loop
		if rep > best {
			class, best = ClassRepeating, rep
		}
		if nonrep > best {
			class, best = ClassNonRepeating, nonrep
		}
		if static >= best {
			class = ClassStatic
			if site.Bias() > cfg.HighBias {
				p.StaticHighBias += site.Count
			}
		}
		p.Class[pc] = class
		p.DynWeight[class] += site.Count
	}
	return p
}

// Category is a section 5 best-predictor category.
type Category uint8

// Categories for the Figure 7/8 distributions.
const (
	CatStatic Category = iota
	CatGlobal
	CatPerAddress
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatStatic:
		return "ideal-static"
	case CatGlobal:
		return "global"
	case CatPerAddress:
		return "per-address"
	default:
		return "unknown"
	}
}

// CategorySplit is a dynamic-weighted distribution of branches over the
// three section 5 categories.
type CategorySplit struct {
	Weight         [numCategories]int
	Total          int
	StaticHighBias int // dynamic weight of >99%-biased CatStatic branches
	Category       map[trace.Addr]Category
}

// Frac returns the dynamic fraction of branches in category c.
func (s *CategorySplit) Frac(c Category) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Weight[c]) / float64(s.Total)
}

// StaticHighBiasFrac returns the >99%-biased share of the static
// category's dynamic weight.
func (s *CategorySplit) StaticHighBiasFrac() float64 {
	if s.Weight[CatStatic] == 0 {
		return 0
	}
	return float64(s.StaticHighBias) / float64(s.Weight[CatStatic])
}

// SplitBest assigns every branch to the category whose correct count is
// highest; the static category wins ties against both others (the paper
// does not classify branches "predicted at least as accurately with an
// ideal static predictor"), and global wins ties against per-address.
// globalCorrect and perAddrCorrect give each side's best per-branch
// correct count; highBias is the bias threshold for the static share
// breakdown (pass 0.99 to match the paper).
func SplitBest(stats *trace.Stats, static *sim.Result,
	globalCorrect, perAddrCorrect func(trace.Addr) int, highBias float64) *CategorySplit {
	s := &CategorySplit{
		Total:    stats.Dynamic,
		Category: make(map[trace.Addr]Category, len(stats.Sites)),
	}
	for pc, site := range stats.Sites {
		st := static.Branch(pc).Correct
		g := globalCorrect(pc)
		p := perAddrCorrect(pc)
		cat := CatGlobal
		best := g
		if p > best {
			cat, best = CatPerAddress, p
		}
		if st >= best {
			cat = CatStatic
			if site.Bias() > highBias {
				s.StaticHighBias += site.Count
			}
		}
		s.Category[pc] = cat
		s.Weight[cat] += site.Count
	}
	return s
}
