// Incremental decode of both trace encodings, in batches.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// streamBatchSize is how many decoded events accumulate before the batch is
// emitted downstream.
const streamBatchSize = 256

// Stream incrementally decodes a trace, calling emit with each batch of
// fully validated events. Events passed to emit are never touched again by
// the decoder, so emit may retain the slice. Both trace encodings are
// accepted: the decoder sniffs the first bytes and dispatches to the
// CRC32C-framed decoder (SaveFramed's output, failures reported as
// *CorruptionError with a byte offset) or the JSON-lines decoder (Save's
// output, failures reported with the offending line number). Inputs
// exceeding lim fail with ErrTooManyEvents or ErrTooManyBytes.
func Stream(r io.Reader, lim Limits, emit func(batch []Event) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	// A JSON line opens with '{' (or whitespace), so the magic is an
	// unambiguous discriminator. Peek errors (including an input shorter
	// than the magic) fall through to the JSON-lines path, which handles
	// empty and truncated input with its historical errors.
	if head, err := br.Peek(len(traceMagic)); err == nil && bytes.Equal(head, traceMagic) {
		return decodeFramed(br, lim, emit)
	}
	return streamJSONLines(br, lim, emit)
}

// streamJSONLines is the JSON-lines decode loop behind Stream. Blank lines
// are skipped.
func streamJSONLines(br *bufio.Reader, lim Limits, emit func(batch []Event) error) error {
	var read int64
	count := 0
	batch := make([]Event, 0, streamBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		out := batch
		batch = make([]Event, 0, streamBatchSize)
		return emit(out)
	}
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		read += int64(len(raw))
		if lim.MaxBytes > 0 && read > lim.MaxBytes {
			return fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, lim.MaxBytes)
		}
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			if lim.MaxEvents > 0 && count >= lim.MaxEvents {
				return fmt.Errorf("%w: more than %d events (line %d)", ErrTooManyEvents, lim.MaxEvents, line)
			}
			var e Event
			if jerr := json.Unmarshal(trimmed, &e); jerr != nil {
				return fmt.Errorf("trace: line %d: %w", line, jerr)
			}
			if verr := e.validate(); verr != nil {
				return fmt.Errorf("trace: line %d: %w", line, verr)
			}
			batch = append(batch, e)
			count++
			if len(batch) == streamBatchSize {
				if ferr := flush(); ferr != nil {
					return ferr
				}
			}
		}
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
}
