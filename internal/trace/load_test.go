package trace_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ompt"
	"repro/internal/trace"
)

// syntheticTrace hand-builds a small valid trace.
func syntheticTrace(n int) *trace.Trace {
	t := &trace.Trace{}
	for i := 0; i < n; i++ {
		t.Events = append(t.Events, trace.Event{
			Kind: trace.KindAccess,
			Seq:  uint64(i),
			Access: &ompt.AccessEvent{
				Addr: 0x1000, Size: 8, Device: ompt.HostDevice, Tag: "x",
			},
		})
	}
	return t
}

func saved(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadLimitedMaxEvents(t *testing.T) {
	data := saved(t, syntheticTrace(5))
	if _, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{MaxEvents: 5}); err != nil {
		t.Errorf("at the limit: %v", err)
	}
	_, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{MaxEvents: 4})
	if !errors.Is(err, trace.ErrTooManyEvents) {
		t.Errorf("over the limit: err %v, want ErrTooManyEvents", err)
	}
}

func TestLoadLimitedMaxBytes(t *testing.T) {
	data := saved(t, syntheticTrace(5))
	if _, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{MaxBytes: int64(len(data))}); err != nil {
		t.Errorf("at the limit: %v", err)
	}
	_, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{MaxBytes: int64(len(data)) - 1})
	if !errors.Is(err, trace.ErrTooManyBytes) {
		t.Errorf("over the limit: err %v, want ErrTooManyBytes", err)
	}
}

func TestLoadMalformedLineNumber(t *testing.T) {
	data := saved(t, syntheticTrace(2))
	data = append(data, []byte("{not json\n")...)
	_, err := trace.Load(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err %v, want a line-3 parse error", err)
	}
}

func TestLoadMissingPayload(t *testing.T) {
	_, err := trace.Load(strings.NewReader(`{"kind":"access","seq":0}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "missing payload") {
		t.Errorf("err %v, want line-1 missing-payload error", err)
	}
}

func TestLoadUnknownKind(t *testing.T) {
	_, err := trace.Load(strings.NewReader(`{"kind":"bogus","seq":0}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("err %v, want unknown-kind error", err)
	}
}

func TestLoadSkipsBlankLines(t *testing.T) {
	data := saved(t, syntheticTrace(3))
	padded := append([]byte("\n\n"), data...)
	padded = append(padded, '\n', '\n')
	tr, err := trace.Load(bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Errorf("loaded %d events, want 3", tr.Len())
	}
}

// countingTool counts dispatched access events.
type countingTool struct {
	ompt.NopTool
	accesses int
}

func (c *countingTool) OnAccess(ompt.AccessEvent) { c.accesses++ }

func TestReplayContextCanceled(t *testing.T) {
	tr := syntheticTrace(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var tool countingTool
	err := tr.ReplayContext(ctx, &tool)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err %v, want context.Canceled", err)
	}
	if tool.accesses != 0 {
		t.Errorf("%d events dispatched after pre-canceled context, want 0", tool.accesses)
	}
}

func TestReplayContextUncanceled(t *testing.T) {
	tr := syntheticTrace(10)
	var tool countingTool
	if err := tr.ReplayContext(context.Background(), &tool); err != nil {
		t.Fatal(err)
	}
	if tool.accesses != 10 {
		t.Errorf("dispatched %d accesses, want 10", tool.accesses)
	}
}
