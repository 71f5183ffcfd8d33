package scheduler

// Counters count a run's work by layer, so that a change claiming to
// cut a layer's work can show it on a fixed input. They are plain
// fields of the sim, bumped on the event goroutine, which a run never
// leaves. They stay out of Result, the config hash and the checkpoint
// bytes, and a resumed stepper counts from its resume. The optimized
// kernels count; the naive reference path counts ticks only.
type Counters struct {
	// Ticks counts the wind and auxiliary ticks fired.
	Ticks int64

	// ProcsRecounted counts the processors whose endangered-slice count
	// rebalance recomputed: those the cluster's queue-estimate feed
	// listed, or every processor when the feed had overflowed.
	ProcsRecounted int64
	// QueuedWalked counts the queued slices rebalance visited, in its
	// recounts and in collecting candidates.
	QueuedWalked int64
	// RebalanceCandidates counts the endangered slices rebalance
	// collected, and Migrations those it moved.
	RebalanceCandidates int64
	Migrations          int64

	// MatchCollected counts the running slices match's passes collected
	// and sorted, and MatchRetimed those whose level a pass changed.
	MatchCollected int64
	MatchRetimed   int64
}

// Counters returns the run's work counts so far.
func (st *Stepper) Counters() Counters { return st.s.counters }
