package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestEveryIDIsDocumented: the table is the only list of IDs, so the usage
// text (generated from it) and DESIGN.md §4 (written by hand) must name each.
func TestEveryIDIsDocumented(t *testing.T) {
	var out, usage bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &out, &usage); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## 4. Experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no §4 experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	for _, e := range experiments {
		for _, name := range e.names {
			if !strings.Contains(usage.String(), name) {
				t.Errorf("usage text does not name %q", name)
			}
		}
		if !strings.Contains(index, "`rsmbench -exp "+e.names[0]+"`") {
			t.Errorf("DESIGN.md §4 has no row run by `rsmbench -exp %s`", e.names[0])
		}
	}
}

// TestBadArgumentsExit2BeforeAnythingRuns: an unknown ID after valid ones, or
// a stray positional argument, is rejected before the first experiment (each
// prints its banner to stdout as it starts).
func TestBadArgumentsExit2BeforeAnythingRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "reconfig,catchup,typo"},
		{"-exp", "t1"}, // retired
		{"-exp", "f5"}, // retired with the in-band baseline
		{"reconfig"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: an experiment started:\n%s", args, out.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("%v: nothing said on stderr", args)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	ids := func(spec string) string {
		t.Helper()
		picked, err := selectExperiments(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, i := range picked {
			out = append(out, experiments[i].names[0])
		}
		return strings.Join(out, " ")
	}
	// `all` is the measurements; the pass/fail checks run only by name.
	if got := ids("all"); got != "disruption reconfig catchup mega" {
		t.Fatalf("all = %q", got)
	}
	// Older names select the experiment that absorbed them, once.
	if got := ids("T2,disruption,lin"); got != "disruption lin" {
		t.Fatalf("T2,disruption,lin = %q", got)
	}
}
