// Package vsm implements ARBALEST's variable state machine (paper Fig. 4).
//
// For every aligned 8-byte word of a mapped variable, the VSM tracks which of
// the two storage locations — the original variable OV on the host and the
// corresponding variable CV on the accelerator — holds the last write:
//
//	invalid    : neither location has a valid value
//	host       : only the OV is valid
//	target     : only the CV is valid
//	consistent : both locations are valid and equal
//
// Eight operations drive transitions: read/write/update on either side plus
// allocate/release of the CV. A data mapping issue is reported exactly when
// the machine has no transition for the current operation: a read in
// `invalid`, a read_target in `host`, or a read_host in `target` (paper
// §IV-B). Initialization bits ride along to let reports distinguish a use of
// uninitialized memory (UUM) from a use of stale data (USD).
package vsm

import (
	"fmt"

	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// Op is a VSM operation.
type Op uint8

// The VSM operations (paper §IV-A).
const (
	// ReadHost reads the OV.
	ReadHost Op = iota
	// ReadTarget reads the CV.
	ReadTarget
	// WriteHost writes the OV.
	WriteHost
	// WriteTarget writes the CV.
	WriteTarget
	// UpdateHost synchronizes OV and CV using the value in the CV
	// (a device-to-host transfer).
	UpdateHost
	// UpdateTarget synchronizes OV and CV using the value in the OV
	// (a host-to-device transfer).
	UpdateTarget
	// Allocate creates the CV on the accelerator.
	Allocate
	// Release destroys the CV.
	Release
)

func (o Op) String() string {
	switch o {
	case ReadHost:
		return "read_host"
	case ReadTarget:
		return "read_target"
	case WriteHost:
		return "write_host"
	case WriteTarget:
		return "write_target"
	case UpdateHost:
		return "update_host"
	case UpdateTarget:
		return "update_target"
	case Allocate:
		return "allocate"
	case Release:
		return "release"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IssueKind classifies a detected data mapping issue.
type IssueKind uint8

// The observable anomalies a data mapping issue manifests as (paper §III).
const (
	// NoIssue means the operation was legal.
	NoIssue IssueKind = iota
	// UUM is a use of uninitialized memory: the read observed a location
	// that never received a value.
	UUM
	// USD is a use of stale data: the read observed a location whose value
	// was superseded by a write to the other storage location.
	USD
)

func (k IssueKind) String() string {
	switch k {
	case NoIssue:
		return "none"
	case UUM:
		return "use of uninitialized memory"
	case USD:
		return "use of stale data (stale access)"
	}
	return fmt.Sprintf("IssueKind(%d)", uint8(k))
}

// Transition applies op to the VSM state encoded in w and returns the new
// shadow word plus the issue the operation manifests (NoIssue if legal).
//
// The returned word has the valid and init bits updated; callers layer the
// access metadata (TID, clock, size, offset) on top. Transition is a pure
// function.
func Transition(w shadow.Word, op Op) (shadow.Word, IssueKind) {
	switch op {
	case ReadHost:
		if !w.OVValid() {
			// Read in `invalid` or `target`: no transition exists.
			if w.OVInit() {
				return w, USD
			}
			return w, UUM
		}
		return w, NoIssue

	case ReadTarget:
		if !w.CVValid() {
			// Read in `invalid` or `host`: no transition exists.
			if w.CVInit() {
				return w, USD
			}
			return w, UUM
		}
		return w, NoIssue

	case WriteHost:
		// Any state -> host.
		return w.WithOVValid(true).WithCVValid(false).WithOVInit(true), NoIssue

	case WriteTarget:
		// Any state -> target.
		return w.WithOVValid(false).WithCVValid(true).WithCVInit(true), NoIssue

	case UpdateHost:
		// CV -> OV copy: the OV inherits the CV's validity and
		// initialization. host -> invalid (OV overwritten by the invalid
		// CV); target -> consistent; invalid -> invalid; consistent stays.
		return w.WithOVValid(w.CVValid()).WithOVInit(w.CVInit()), NoIssue

	case UpdateTarget:
		// OV -> CV copy, symmetric: target -> invalid; host -> consistent.
		return w.WithCVValid(w.OVValid()).WithCVInit(w.OVInit()), NoIssue

	case Allocate:
		// A fresh CV holds garbage: it is neither valid nor initialized.
		return w.WithCVValid(false).WithCVInit(false), NoIssue

	case Release:
		// Destroying the CV: target -> invalid (paper §IV-B), host stays
		// host, consistent -> host.
		return w.WithCVValid(false).WithCVInit(false), NoIssue
	}
	panic(fmt.Sprintf("vsm: unknown op %d", op))
}

// IsRead reports whether op is one of the two read operations, the only ones
// that can manifest an issue.
func (o Op) IsRead() bool { return o == ReadHost || o == ReadTarget }

// tagTable is the whole state machine flattened into 8 ops × 16 tags.
// Each entry packs the 4-bit result tag in the low nibble and the
// IssueKind in bits 4-5. Built from Transition at init, so the table and
// the reference implementation cannot drift.
var tagTable [8][16]uint8

func init() {
	for op := ReadHost; op <= Release; op++ {
		for tag := 0; tag < 16; tag++ {
			nw, issue := Transition(shadow.Word(tag), op)
			tagTable[op][tag] = uint8(nw)&0xF | uint8(issue)<<4
		}
	}
}

// TransitionTag applies op to a 4-bit state/init tag — the compact form of
// Transition for the tag-plane fast path. It returns the new tag and the
// manifested issue. Because Transition only reads and writes the low
// nibble of the shadow word, TransitionTag(w.Tag(), op) agrees with
// Transition(w, op) for every word w.
func TransitionTag(tag uint8, op Op) (uint8, IssueKind) {
	v := tagTable[op][tag&0xF]
	return v & 0xF, IssueKind(v >> 4)
}

// RecordTransition records the (from, to) state pair of an applied
// transition on stats. The detector calls it once per applied
// transition. The indexes are the packed
// shadow.State values, so telemetry's transition matrix maps 1:1 onto the
// paper's Fig. 4 states. A nil stats costs one branch and decodes no
// states, which keeps the disabled hot path free of measurable overhead.
func RecordTransition(stats *telemetry.AnalyzerStats, from, to shadow.Word) {
	if stats != nil {
		stats.RecordTransition(uint8(from.State()), uint8(to.State()))
	}
}
