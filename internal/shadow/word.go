// Package shadow implements ARBALEST's shadow memory.
//
// For every aligned 8-byte word of a mapped variable's host storage (OV),
// the detector keeps one packed 64-bit shadow word encoding the variable
// state machine's state plus access metadata (paper Table II):
//
//	bit  0      IsOVValid
//	bit  1      IsCVValid
//	bit  2      IsOVInitialized
//	bit  3      IsCVInitialized
//	bits 4-15   TID (12 bits)
//	bits 16-57  scalar clock (42 bits)
//	bit  58     IsWrite
//	bits 59-60  access size exponent (log2 of 1,2,4,8)
//	bits 61-63  address offset within the word (0..7)
//
// The two valid bits encode the four VSM states (invalid / host / target /
// consistent); the two init bits let the report distinguish a use of
// uninitialized memory (UUM) from a use of stale data (USD). The paper
// updates shadow words with atomic compare-and-swap (§IV-C); here every
// event source delivers callbacks one at a time, so words are read and
// written with plain loads and stores.
package shadow

import "fmt"

// Word is one packed shadow word.
type Word uint64

// Bit layout constants.
const (
	bitOVValid Word = 1 << 0
	bitCVValid Word = 1 << 1
	bitOVInit  Word = 1 << 2
	bitCVInit  Word = 1 << 3

	tidShift  = 4
	tidBits   = 12
	tidMask   = (1<<tidBits - 1) << tidShift
	clkShift  = 16
	clkBits   = 42
	clkMask   = (1<<clkBits - 1) << clkShift
	bitWrite  = Word(1) << 58
	sizeShift = 59
	sizeMask  = Word(3) << sizeShift
	offShift  = 61
	offMask   = Word(7) << offShift
)

// MaxTID is the largest thread id representable in a shadow word.
const MaxTID = 1<<tidBits - 1

// MaxClock is the largest scalar clock representable in a shadow word.
const MaxClock = 1<<clkBits - 1

// OVValid reports whether the original (host) storage holds the last write.
func (w Word) OVValid() bool { return w&bitOVValid != 0 }

// CVValid reports whether the corresponding (device) storage holds the last write.
func (w Word) CVValid() bool { return w&bitCVValid != 0 }

// OVInit reports whether the host storage was ever initialized.
func (w Word) OVInit() bool { return w&bitOVInit != 0 }

// CVInit reports whether the device storage was ever initialized.
func (w Word) CVInit() bool { return w&bitCVInit != 0 }

// WithOVValid returns w with IsOVValid set to v.
func (w Word) WithOVValid(v bool) Word { return w.set(bitOVValid, v) }

// WithCVValid returns w with IsCVValid set to v.
func (w Word) WithCVValid(v bool) Word { return w.set(bitCVValid, v) }

// WithOVInit returns w with IsOVInitialized set to v.
func (w Word) WithOVInit(v bool) Word { return w.set(bitOVInit, v) }

// WithCVInit returns w with IsCVInitialized set to v.
func (w Word) WithCVInit(v bool) Word { return w.set(bitCVInit, v) }

func (w Word) set(bit Word, v bool) Word {
	if v {
		return w | bit
	}
	return w &^ bit
}

// TID returns the thread id of the recorded access.
func (w Word) TID() uint32 { return uint32(w&tidMask) >> tidShift }

// WithTID returns w with the thread id field replaced.
func (w Word) WithTID(tid uint32) Word {
	return (w &^ tidMask) | (Word(tid)<<tidShift)&tidMask
}

// Clock returns the scalar clock of the recorded access.
func (w Word) Clock() uint64 { return (uint64(w) & uint64(clkMask)) >> clkShift }

// WithClock returns w with the scalar clock field replaced.
func (w Word) WithClock(c uint64) Word {
	return (w &^ clkMask) | (Word(c)<<clkShift)&clkMask
}

// IsWrite reports whether the recorded access was a write.
func (w Word) IsWrite() bool { return w&bitWrite != 0 }

// WithIsWrite returns w with the IsWrite bit set to v.
func (w Word) WithIsWrite(v bool) Word { return w.set(bitWrite, v) }

// AccessSize returns the recorded access size in bytes (1, 2, 4 or 8).
func (w Word) AccessSize() uint64 { return 1 << ((w & sizeMask) >> sizeShift) }

// WithAccessSize returns w with the access size field set. size must be
// 1, 2, 4 or 8.
func (w Word) WithAccessSize(size uint64) Word {
	var exp Word
	switch size {
	case 1:
		exp = 0
	case 2:
		exp = 1
	case 4:
		exp = 2
	case 8:
		exp = 3
	default:
		panic(fmt.Sprintf("shadow: unsupported access size %d", size))
	}
	return (w &^ sizeMask) | exp<<sizeShift
}

// Offset returns the recorded byte offset within the aligned word (0..7).
func (w Word) Offset() uint64 { return uint64(w&offMask) >> offShift }

// WithOffset returns w with the offset field replaced.
func (w Word) WithOffset(off uint64) Word {
	return (w &^ offMask) | (Word(off)<<offShift)&offMask
}

// State is the four-state VSM state encoded by the two valid bits (paper Fig 4).
type State uint8

// The four VSM states.
const (
	Invalid    State = iota // neither storage location holds a valid value
	HostOnly                // only the OV holds the last write
	TargetOnly              // only the CV holds the last write
	Consistent              // both locations are valid and equal
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case HostOnly:
		return "host"
	case TargetOnly:
		return "target"
	case Consistent:
		return "consistent"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Tag returns the word's low nibble: the 4 state/init bits that the
// compact tag plane mirrors (OVValid | CVValid<<1 | OVInit<<2 | CVInit<<3).
func (w Word) Tag() uint8 { return uint8(w & 0xF) }

// TagState decodes the VSM state from a 4-bit tag. The two valid bits are
// the state's binary encoding, so this is a mask.
func TagState(tag uint8) State { return State(tag & 3) }

// MetaWord builds the metadata plane of a shadow word — everything above
// the low nibble — exactly as the access path's WithTID/WithClock/
// WithIsWrite/WithAccessSize/WithOffset chain would. OR it with a 4-bit
// tag to form the complete word. size must be 1, 2, 4 or 8.
func MetaWord(tid uint32, clock uint64, write bool, size, off uint64) Word {
	return Word(0).WithTID(tid).WithClock(clock).WithIsWrite(write).WithAccessSize(size).WithOffset(off)
}

// State decodes the VSM state from the valid bits.
func (w Word) State() State {
	switch {
	case w.OVValid() && w.CVValid():
		return Consistent
	case w.OVValid():
		return HostOnly
	case w.CVValid():
		return TargetOnly
	default:
		return Invalid
	}
}

// WithState returns w with the valid bits encoding state s.
func (w Word) WithState(s State) Word {
	switch s {
	case Invalid:
		return w.WithOVValid(false).WithCVValid(false)
	case HostOnly:
		return w.WithOVValid(true).WithCVValid(false)
	case TargetOnly:
		return w.WithOVValid(false).WithCVValid(true)
	case Consistent:
		return w.WithOVValid(true).WithCVValid(true)
	}
	panic(fmt.Sprintf("shadow: unknown state %d", s))
}

// String renders the shadow word for debugging and bug reports.
func (w Word) String() string {
	rw := "r"
	if w.IsWrite() {
		rw = "w"
	}
	return fmt.Sprintf("{%s ovInit=%t cvInit=%t tid=%d clk=%d %s sz=%d off=%d}",
		w.State(), w.OVInit(), w.CVInit(), w.TID(), w.Clock(), rw, w.AccessSize(), w.Offset())
}
