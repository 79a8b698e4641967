package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", steady, steady, true, 0.1, "no-regression"},
		{"faster in every pair", steady, []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, true, 0.1, "improved"},
		{"within bound", steady, []float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 95}, true, 0.1, "no-regression"},
		{"beyond bound", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, true, 0.1, "regression"},
		{"lower is better", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, false, 0.1, "improved"},
		{"spread wider than bound", steady, []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, true, 0.1, "unresolved"},
		{"8 of 10 pairs is no gain", steady, []float64{110, 111, 109, 110, 112, 108, 110, 111, 90, 90}, true, 0.5, "no-regression"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, events string) string {
		p := filepath.Join(dir, name)
		doc := `{"workload":"w","fingerprint":{"p":` + events + `},"metrics":{"ops_per_s":{"value":1,"unit":"1/s","better":"higher","bound":0.1}}}
{"correct":true,"attempted":1,"failed":0,"metrics":{}}`
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, other := write("a.json", "10"), write("b.json", "10"), write("c.json", "11")
	var out, errs bytes.Buffer
	if code := run([]string{"-a", a, "-b", same}, &out, &errs); code != 0 || !strings.Contains(out.String(), "no-regression") {
		t.Fatalf("same inputs: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if code := run([]string{"-a", a, "-b", other}, &out, &errs); code != 2 {
		t.Fatalf("different inputs: exit %d, want 2", code)
	}
}
