// CRC32C-framed trace encoding: the corruption-tolerant on-disk format.
//
// The JSON-lines format (Save/Load) is human-greppable but has no integrity
// protection: a flipped bit inside a JSON string silently changes a tag, and
// a truncated upload parses cleanly up to the cut. The framed format wraps
// every event in a checksummed length-prefixed frame behind a versioned
// header, so the decoder can tell exactly where an input went bad and say
// so — a structured CorruptionError with byte offset and reason — instead of
// panicking or mis-parsing. CRC32C (Castagnoli) is the same polynomial
// storage systems use for end-to-end integrity; hardware-accelerated on
// every platform Go targets.
//
// Layout:
//
//	header   "ARBT" | version (1 byte) | 3 reserved zero bytes
//	frame*   u32 LE payload length | u32 LE crc32c(payload) | payload
//
// Version 2 makes each payload a compact binary encoding of one Event: a
// kind code byte, the sequence number, then the kind's fields in this
// order, where loc is file, line, func:
//
//	1 device-init   device, name, unified
//	2 target-begin  kind, device, task, target, async, loc
//	3 target-end    kind, device, task, target, async, loc
//	4 data-op       kind, device, task, tag, host addr, dev addr, bytes, implicit, loc
//	5 access        addr, size, write, device, task, thread, base, tag, loc
//	6 sync          kind, task, child, thread, loc
//	7 alloc         free, addr, bytes, tag, task, loc
//
// Device IDs and line numbers are zig-zag varints; enum kinds are one byte
// and bools one byte, 0 or 1; strings are a uvarint length and the raw
// bytes; every other number is a uvarint. A payload must be consumed
// exactly. Every frame stays self-contained, with no string table shared
// across frames, because resuming by sequence number and truncating a torn
// tail restart decoding at an arbitrary frame.
//
// Version 1 payloads were the JSON encoding of one Event. A payload whose
// first byte is '{', which no kind code is, is still decoded as one under
// either header version: old spools and uploads load, and so does a
// version-1 spool that had version-2 frames appended after recovery. Writers
// emit version 2 only. A trace decoded from an input that is version 2
// throughout, header and every payload, keeps the input's bytes
// (Trace.Framed): they passed every check, so the journal and the worker
// fetch pass them on as they are. Version-1 and mixed inputs keep none and
// are re-encoded as version 2 where they are written out. Readers never
// need to choose an encoding:
// LoadLimited sniffs the magic and dispatches, so every Load/Replay path
// accepts JSON lines and both framed versions transparently.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// traceMagic opens a framed trace file.
var traceMagic = []byte("ARBT")

// traceVersion is the framed-format version writers emit; readers also
// accept version 1.
const traceVersion = 2

// frameHeaderSize is the per-frame prefix: u32 length + u32 crc32c.
const frameHeaderSize = 8

// MaxFramePayload bounds a single frame's payload so a corrupted length
// field cannot trigger a giant allocation before the CRC check gets a
// chance to reject it.
const MaxFramePayload = 64 << 20

// castagnoli is the CRC32C table (iSCSI/ext4 polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptionError reports malformed framed input: where the decoder was in
// the byte stream and what it found there. The decoder guarantees it never
// panics on corrupted input — every failure mode (bad header, impossible
// length, checksum mismatch, torn final frame, invalid payload) surfaces as
// one of these.
type CorruptionError struct {
	// Offset is the byte offset of the frame (or header) the failure was
	// detected in.
	Offset int64
	// Reason is a short machine-independent description of the failure.
	Reason string
	// Err is the underlying cause, when one exists (an io or payload
	// decode error).
	Err error
}

// Error implements error.
func (e *CorruptionError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("trace: corrupt input at byte %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("trace: corrupt input at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CorruptionError) Unwrap() error { return e.Err }

// SaveFramed writes the trace in the CRC32C-framed format. Prefer this over
// Save for spool files and any trace that crosses an unreliable medium: a
// reader can detect — and localize — any later corruption.
func (t *Trace) SaveFramed(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(StreamHeader()); err != nil {
		return err
	}
	var frame []byte
	err := t.each(func(e *Event) error {
		var err error
		if frame, err = AppendEventFrame(frame[:0], e); err != nil {
			return err
		}
		_, err = bw.Write(frame)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// checkHeader validates the 8-byte header that opens a framed stream.
func checkHeader(hdr []byte) error {
	if !bytes.Equal(hdr[:len(traceMagic)], traceMagic) {
		return &CorruptionError{Reason: fmt.Sprintf("bad magic %q", hdr[:len(traceMagic)])}
	}
	if v := hdr[len(traceMagic)]; v < 1 || v > traceVersion {
		return &CorruptionError{Reason: fmt.Sprintf("unsupported version %d (reads 1 to %d)", v, traceVersion)}
	}
	return nil
}

// tornEnd reports an input that stopped, with cause, inside the header or
// the frame at d.off: LoadLimited's wording of PushDecoder.Finish's torn
// end, naming the part of the header or frame that is missing.
func (d *PushDecoder) tornEnd(cause error) error {
	var reason string
	switch {
	case !d.headerDone:
		reason = fmt.Sprintf("short header (%d of %d bytes)", len(d.tail), len(traceMagic)+4)
	case len(d.tail) < frameHeaderSize:
		reason = fmt.Sprintf("torn frame header (%d of %d bytes)", len(d.tail), frameHeaderSize)
	default:
		reason = fmt.Sprintf("torn frame payload (%d of %d bytes)", len(d.tail)-frameHeaderSize, binary.LittleEndian.Uint32(d.tail))
	}
	return &CorruptionError{Offset: d.off, Reason: reason, Err: cause}
}
