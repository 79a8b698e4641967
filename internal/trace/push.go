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
// decoding into a trace's columns instead of emitting events, and a stream
// session pushes its chunks into the replay driver's window (PushWindow).
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
	// instead of emit: a whole trace's columns (Decode) or a Replayer's
	// window (PushWindow), where keep, when set, first decides by sequence
	// number whether the event is kept. ev and r hold the event being
	// delivered: a binary access as a row, anything else as an Event.
	cols *accessCols
	keep func(seq uint64) (bool, error)
	ev   Event
	r    row
	// frame is the frame of the event being delivered (Frame).
	frame []byte

	// tail holds the bytes of an incomplete header or frame, carried over
	// to the next Push in the decoder's own buffer: never more than the
	// one header or frame a chunk boundary split.
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
// being emitted or offered to keep, as it arrived. Valid only during that
// call, which copies it to keep it.
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
	if err := d.push(chunk, emit); err != nil {
		return d.fail(err)
	}
	return nil
}

// PushWindow decodes chunk as Push does, but into r's window instead of
// emitting: each event, once decoded, is offered to keep by its sequence
// number, and if keep returns true it becomes the window's next event, an
// access straight into a row. keep may replay the window
// (Replayer.ReplayWindow) to make room before it returns. An error from
// keep is terminal, as one from emit is. A decoder serves Push or
// PushWindow, not both.
func (d *PushDecoder) PushWindow(chunk []byte, r *Replayer, keep func(seq uint64) (bool, error)) error {
	d.cols, d.keep, d.dec.sites = &r.win, keep, &r.win.table
	return d.Push(chunk, nil)
}

// push completes the header or frame an earlier push left split from the
// front of chunk, copying into the tail only that header or frame's
// bytes, then decodes the rest of chunk in place and keeps its unfinished
// end as the new tail.
func (d *PushDecoder) push(chunk []byte, emit func(e *Event) error) error {
	for len(d.tail) > 0 && len(chunk) > 0 {
		n := min(d.unitLen()-len(d.tail), len(chunk))
		d.tail = append(d.tail, chunk[:n]...)
		chunk = chunk[n:]
		// The tail now holds a whole header or frame, a frame header (whose
		// length decode checks), or chunk ran out.
		used, err := d.decode(d.tail, emit)
		if err != nil {
			return err
		}
		d.tail = d.tail[:copy(d.tail, d.tail[used:])]
	}
	used, err := d.decode(chunk, emit)
	if err != nil {
		return err
	}
	d.tail = append(d.tail, chunk[used:]...)
	return nil
}

// unitLen returns the length of the header or frame the tail begins, as
// far as the tail tells it: a frame's length is known once its frame
// header is whole.
func (d *PushDecoder) unitLen() int {
	switch {
	case !d.headerDone:
		return len(traceMagic) + 4
	case len(d.tail) < frameHeaderSize:
		return frameHeaderSize
	default:
		return frameHeaderSize + int(binary.LittleEndian.Uint32(d.tail))
	}
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
		var isRow bool
		var err error
		if d.cols != nil {
			isRow, err = d.dec.decode(d.off, payload, &d.ev, &d.r)
		} else {
			err = d.dec.decodeFrame(d.off, payload, &d.ev)
		}
		if err != nil {
			return pos, err
		}
		pos += frameHeaderSize + int(length)
		d.off += frameHeaderSize + int64(length)
		d.events++
		d.frame = frame[:frameHeaderSize+int(length)]
		if d.cols == nil {
			err = emit(&d.ev)
		} else {
			err = d.add(isRow)
		}
		if err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// add appends the event just decoded into the columns, d.r when isRow,
// else d.ev, once keep, if set, has agreed to it.
func (d *PushDecoder) add(isRow bool) error {
	if d.keep != nil {
		if ok, err := d.keep(d.ev.Seq); !ok || err != nil {
			return err
		}
	}
	if isRow {
		d.cols.appendRow(&d.r)
	} else {
		d.cols.add(&d.ev)
	}
	return nil
}

// The shortest payloads a valid version-2 event can have: an access is a
// kind code and twelve fields of at least one byte each (seq, addr, size,
// write, device, task, thread, base, tag, and loc's file, line and func);
// the shortest other event, a device-init, is a kind code and four (seq,
// device, name, unified).
const (
	minAccessPayload  = 13
	minBarrierPayload = 5
)

// countFrames is Decode's sizing pass over a framed input held whole: it
// walks the frame headers without checking or decoding a payload and
// returns how many access rows and barriers the decode can append. It
// stops where the frame loop must: at a frame past the input's end, the
// frame-length bound or MaxBytes, and after MaxEvents frames. It only
// sizes, so it counts a frame by its kind code only when the frame is long
// enough to hold a valid event of that kind; no input is given more
// storage than a valid input of its length would fill. Version-1 (JSON)
// frames count as neither, and their rows grow the columns.
func countFrames(data []byte, lim Limits) (rows, barriers int) {
	pos := len(traceMagic) + 4
	for n := 0; len(data)-pos >= frameHeaderSize; n++ {
		if lim.MaxEvents > 0 && n >= lim.MaxEvents {
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[pos:]))
		end := int64(pos) + frameHeaderSize + length
		if length > MaxFramePayload || end > int64(len(data)) || (lim.MaxBytes > 0 && end > lim.MaxBytes) {
			break
		}
		if length > 0 {
			switch code := data[pos+frameHeaderSize]; {
			case code == codeAccess:
				if length >= minAccessPayload {
					rows++
				}
			case code >= codeDeviceInit && code <= codeAlloc:
				if length >= minBarrierPayload {
					barriers++
				}
			}
		}
		pos = int(end)
	}
	return rows, barriers
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
