package tools

import (
	"repro/internal/report"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// Summary is the JSON-serializable outcome of running an Analyzer over one
// execution or trace. It is the result schema served by the arbalestd
// analysis service and printed by `arbalest -json`.
type Summary struct {
	// Tool is the analyzer's display name (e.g. "Arbalest").
	Tool string `json:"tool"`
	// Issues is the number of distinct diagnostics.
	Issues int `json:"issues"`
	// KindCounts maps each diagnostic kind label to its report count.
	KindCounts map[string]int `json:"kindCounts,omitempty"`
	// ShadowBytes is the analyzer's peak shadow-state footprint.
	ShadowBytes uint64 `json:"shadowBytes"`
	// Reports holds the full diagnostics, in insertion order.
	Reports []report.Report `json:"reports,omitempty"`
	// Stats holds analyzer-level telemetry when the analyzer collected it
	// (a StatsProvider with stats enabled); nil otherwise.
	Stats *Stats `json:"stats,omitempty"`
}

// TransitionStat is one cell of the VSM transition matrix: how many times
// the analysis moved a shadow word from state From to state To.
type TransitionStat struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count uint64 `json:"count"`
}

// Stats is the analyzer-level telemetry block of a Summary: what the VSM
// engine actually did during the replay, in the terms the paper evaluates
// (state transitions, lock-free CAS behavior, interval-tree traffic).
type Stats struct {
	// Accesses is the number of instrumented accesses analyzed.
	Accesses uint64 `json:"accesses,omitempty"`
	// VSMTransitions lists every (from, to) state pair that occurred, in
	// state order, with its count.
	VSMTransitions []TransitionStat `json:"vsmTransitions,omitempty"`
	// ShadowCASRetries is the number of failed compare-and-swap attempts
	// on shadow words (contention on the lock-free path, paper §IV-C).
	ShadowCASRetries uint64 `json:"shadowCASRetries"`
	// IntervalLookups is the number of index searches (binary searches of
	// the published region/CV snapshots) performed to resolve addresses to
	// shadow state or CV mappings.
	IntervalLookups uint64 `json:"intervalLookups"`
	// RegionMemoHits is the number of lookups satisfied by a last-hit memo
	// instead of an index search (replay and exclusive stream sessions).
	RegionMemoHits uint64 `json:"regionMemoHits,omitempty"`
}

// StatsProvider is implemented by analyzers that can collect analyzer-level
// telemetry. EnableStats must be called before the analyzer sees events;
// AnalyzerStats returns nil while stats are disabled.
type StatsProvider interface {
	EnableStats() *telemetry.AnalyzerStats
	AnalyzerStats() *telemetry.AnalyzerStats
}

// Summarize captures a's diagnostics, shadow footprint, and (when
// collected) analyzer-level stats as a Summary.
func Summarize(a Analyzer) *Summary {
	reports := a.Sink().Reports()
	s := &Summary{
		Tool:        a.Name(),
		Issues:      len(reports),
		ShadowBytes: a.ShadowBytes(),
	}
	if len(reports) > 0 {
		s.KindCounts = make(map[string]int)
		s.Reports = make([]report.Report, 0, len(reports))
		for _, r := range reports {
			s.KindCounts[r.Kind.Label()]++
			s.Reports = append(s.Reports, *r)
		}
	}
	if sp, ok := a.(StatsProvider); ok {
		if st := sp.AnalyzerStats(); st != nil {
			s.Stats = buildStats(a, st)
		}
	}
	return s
}

// buildStats converts a raw telemetry collector into the Summary schema,
// naming states with the paper's vocabulary (shadow.State).
func buildStats(a Analyzer, st *telemetry.AnalyzerStats) *Stats {
	out := &Stats{
		ShadowCASRetries: st.CASRetries(),
		IntervalLookups:  st.TreeLookups(),
		RegionMemoHits:   st.MemoHits(),
	}
	if ac, ok := a.(interface{ AccessCount() uint64 }); ok {
		out.Accesses = ac.AccessCount()
	}
	for from := uint8(0); from < telemetry.NumVSMStates; from++ {
		for to := uint8(0); to < telemetry.NumVSMStates; to++ {
			if n := st.TransitionCount(from, to); n > 0 {
				out.VSMTransitions = append(out.VSMTransitions, TransitionStat{
					From:  shadow.State(from).String(),
					To:    shadow.State(to).String(),
					Count: n,
				})
			}
		}
	}
	return out
}
