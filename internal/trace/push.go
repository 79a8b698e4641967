// Push-based framed decode: the one frame loop of the CRC32C format.
//
// A live network session cannot pull from an io.Reader: the transport hands
// the decoder arbitrary byte chunks as they arrive, and blocking for "the
// rest of the frame" would wedge the accept loop. PushDecoder inverts the
// control flow — callers Push chunks, the decoder buffers the incomplete
// tail and emits every event whose frame has fully arrived and passed its
// CRC. Chunk boundaries are completely decoupled from frame boundaries: a
// frame may arrive split across a dozen chunks or bundled with a hundred
// others. LoadLimited and Decode push a whole input through the same loop,
// decoding into a trace's columns instead of emitting events.
//
// All corruption is reported as a *CorruptionError (absolute byte offset +
// reason), and a decoder that has reported an error stays failed: the byte
// position is unrecoverable, so feeding more bytes cannot resynchronize.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// PushDecoder incrementally decodes the CRC32C-framed trace encoding
// (SaveFramed's output) from caller-pushed byte chunks. Not safe for
// concurrent use; a streaming session owns one decoder.
type PushDecoder struct {
	lim Limits
	dec payloadDecoder
	// cols, when set, receives every event as its next row or barrier
	// (Decode) and no event is emitted; otherwise every frame decodes into
	// ev for emit.
	cols *accessCols
	ev   Event
	// frame is the frame of the event being emitted (Frame).
	frame []byte

	// tail holds the bytes of an incomplete header or frame, carried over
	// to the next Push in the decoder's own buffer.
	tail []byte
	// off is the absolute stream offset of the first byte not yet consumed
	// by a complete header or frame — the offset of the next frame (or the
	// header) to decode, and the position corruption errors report.
	off int64
	// headerDone flips once the "ARBT" header has been validated.
	headerDone bool
	// events counts fully decoded events.
	events int
	// failed, once set, is returned by every later Push and Finish.
	failed error
}

// NewPushDecoder returns a decoder enforcing lim (zero = unlimited) with the
// same sentinel errors as LoadLimited.
func NewPushDecoder(lim Limits) *PushDecoder {
	return &PushDecoder{lim: lim}
}

// Offset returns the absolute offset of the first byte not yet consumed by a
// completed frame. After a crash this is where a spooled byte stream stops
// being trustworthy: truncating a spool file to Offset removes a torn tail
// without touching any decoded frame.
func (d *PushDecoder) Offset() int64 { return d.off }

// Pending returns how many buffered bytes await the rest of their frame. A
// nonzero value at end-of-stream means the final frame is torn.
func (d *PushDecoder) Pending() int { return len(d.tail) }

// Events returns the number of events decoded so far.
func (d *PushDecoder) Events() int { return d.events }

// fail records and returns a terminal decode error.
func (d *PushDecoder) fail(err error) error {
	d.failed = err
	return err
}

// Frame returns the frame (length, checksum and payload) of the event
// being emitted, as it arrived. Valid only during emit, which copies it to
// keep it.
func (d *PushDecoder) Frame() []byte { return d.frame }

// Push decodes chunk, after any tail left by earlier pushes, and emits
// every event whose frame is now complete and CRC-valid, in stream order.
// The event is valid only during emit, which copies *e to keep it; the
// payload it points to stays valid. A non-nil error — corruption, a limit
// breach, or an emit failure — is terminal: the decoder stays failed and
// later calls return the same error (emit errors are returned as-is but
// still poison the decoder, since an unknown number of events were already
// consumed).
func (d *PushDecoder) Push(chunk []byte, emit func(e *Event) error) error {
	if d.failed != nil {
		return d.failed
	}
	buf := chunk
	if len(d.tail) > 0 {
		d.tail = append(d.tail, chunk...)
		buf = d.tail
	}
	n, err := d.decode(buf, emit)
	if err != nil {
		return d.fail(err)
	}
	// Keep the unconsumed rest in the decoder's own buffer: buf may be the
	// caller's chunk. The copy may overlap when buf is the tail itself.
	d.tail = append(d.tail[:0], buf[n:]...)
	return nil
}

// decode consumes the header, if still due, and every complete frame at the
// front of buf, returning how many bytes it consumed.
func (d *PushDecoder) decode(buf []byte, emit func(e *Event) error) (int, error) {
	pos := 0
	if !d.headerDone {
		hdrLen := len(traceMagic) + 4
		if len(buf) < hdrLen {
			return 0, nil
		}
		if err := checkHeader(buf[:hdrLen]); err != nil {
			return 0, err
		}
		d.dec.v1 = buf[len(traceMagic)] == 1
		pos = hdrLen
		d.off += int64(hdrLen)
		d.headerDone = true
	}
	for len(buf)-pos >= frameHeaderSize {
		frame := buf[pos:]
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length > MaxFramePayload {
			return pos, &CorruptionError{Offset: d.off, Reason: fmt.Sprintf("frame length %d exceeds limit %d", length, MaxFramePayload)}
		}
		if d.lim.MaxBytes > 0 && d.off+frameHeaderSize+int64(length) > d.lim.MaxBytes {
			return pos, fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, d.lim.MaxBytes)
		}
		if len(frame) < frameHeaderSize+int(length) {
			break // frame not complete yet; wait for the next chunk
		}
		if d.lim.MaxEvents > 0 && d.events >= d.lim.MaxEvents {
			return pos, fmt.Errorf("%w: more than %d events (byte %d)", ErrTooManyEvents, d.lim.MaxEvents, d.off)
		}
		payload := frame[frameHeaderSize : frameHeaderSize+int(length)]
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return pos, &CorruptionError{Offset: d.off, Reason: fmt.Sprintf("checksum mismatch: frame says %#08x, payload is %#08x", sum, got)}
		}
		if d.cols != nil {
			if err := d.dec.decodeInto(d.off, payload, d.cols); err != nil {
				return pos, err
			}
		} else if err := d.dec.decodeFrame(d.off, payload, &d.ev); err != nil {
			return pos, err
		}
		pos += frameHeaderSize + int(length)
		d.off += frameHeaderSize + int64(length)
		d.events++
		if d.cols == nil {
			d.frame = frame[:frameHeaderSize+int(length)]
			if err := emit(&d.ev); err != nil {
				return pos, err
			}
		}
	}
	return pos, nil
}

// Finish declares end-of-stream. Buffered bytes that never completed a frame
// — or a stream too short for its header — are a torn tail, reported as a
// *CorruptionError at the offset the unfinished frame began.
func (d *PushDecoder) Finish() error {
	if d.failed != nil {
		return d.failed
	}
	if !d.headerDone {
		return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("short header (%d of %d bytes)", len(d.tail), len(traceMagic)+4)})
	}
	if len(d.tail) > 0 {
		return d.fail(&CorruptionError{Offset: d.off, Reason: fmt.Sprintf("torn final frame (%d buffered bytes)", len(d.tail))})
	}
	return nil
}

// StreamHeader returns the framed-format file header ("ARBT", version,
// reserved bytes) that opens every framed byte stream. Spool writers use it
// to start a file the push decoder will accept.
func StreamHeader() []byte {
	hdr := make([]byte, len(traceMagic)+4)
	copy(hdr, traceMagic)
	hdr[len(traceMagic)] = traceVersion
	return hdr
}

// AppendEventFrame appends e's CRC32C frame (length, checksum, version-2
// payload) to dst and returns the extended slice — the append-style
// counterpart of SaveFramed's per-event encoding, for spools built one event
// at a time.
func AppendEventFrame(dst []byte, e *Event) ([]byte, error) {
	start := len(dst)
	out, err := appendPayload(append(dst, make([]byte, frameHeaderSize)...), e)
	if err != nil {
		return dst, err
	}
	payload := out[start+frameHeaderSize:]
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("trace: event %d: payload of %d bytes exceeds limit %d", e.Seq, len(payload), MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:], crc32.Checksum(payload, castagnoli))
	return out, nil
}
