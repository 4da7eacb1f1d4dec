package main

import (
	"strings"
	"testing"
)

func TestRunAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size simulation")
	}
	var out strings.Builder
	if err := run([]string{"-table", "all", "-alive", "1.0"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Message complexity",
		"Memory complexity",
		"Reliability",
		"daMulticast",
		"gossip broadcast",
		"gossip multicast",
		"hierarchical broadcast",
		"parasite deliveries",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// daMulticast must report zero parasites.
	if !strings.Contains(s, "da=0") {
		t.Errorf("daMulticast parasites nonzero:\n%s", s)
	}
}

func TestRunSingleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size simulation")
	}
	var out strings.Builder
	if err := run([]string{"-table", "mem"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Memory complexity") {
		t.Error("missing memory table")
	}
	if strings.Contains(s, "Message complexity") {
		t.Error("unexpected message table")
	}
}

// TestRunMemTableShort keeps -short coverage alive: the memory table
// only builds topologies (no dissemination), so a single replication
// is cheap enough to run unconditionally.
func TestRunMemTableShort(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "mem", "-runs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Memory complexity") || !strings.Contains(s, "measured (max)") {
		t.Errorf("missing memory table or its measured column:\n%s", s)
	}
}

func TestRunBadTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "bogus"}, &out); err == nil {
		t.Error("unknown table accepted")
	}
}
