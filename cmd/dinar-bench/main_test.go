package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingExperiment(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -exp should fail")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestRunTable1(t *testing.T) {
	// table1 is static and fast; exercises the full output path.
	if err := run([]string{"-exp", "table1", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-pair"},                             // no base revision
		{"-pair", "no-such-rev-of-this-repo"}, // refused before any worktree or build
	} {
		if err := run(args); err == nil {
			t.Fatalf("%q should fail", args)
		}
	}
}

func TestRunBadCPUs(t *testing.T) {
	for _, bad := range []string{"0", "two", "1,,4", "-1"} {
		if err := run([]string{"-scaling", "-cpus", bad}); err == nil {
			t.Fatalf("-cpus %q should fail", bad)
		}
	}
}

func TestParseCPUs(t *testing.T) {
	counts, err := parseCPUs("1, 2,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 2 || counts[2] != 4 {
		t.Fatalf("parsed %v, want [1 2 4]", counts)
	}
	if counts, err := parseCPUs(""); err != nil || counts != nil {
		t.Fatalf("empty -cpus should mean default sweep, got %v, %v", counts, err)
	}
}
