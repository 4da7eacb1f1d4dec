package sim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-pin testdata/figures.sha256 from the current code")

// figureGoldensFile holds one "<sha256>  <figure>" line per figure: the
// digest of its CSV at goldenPoints points and one run per point.
const (
	figureGoldensFile = "testdata/figures.sha256"
	goldenPoints      = 3
)

// figureDigest is the sha256 of the named figure's CSV at the golden
// scale, swept on sweepWorkers workers (0 = GOMAXPROCS).
func figureDigest(t *testing.T, name string, sweepWorkers int) string {
	t.Helper()
	fig, _, err := GenerateFigure(context.Background(), name, FigureXs(name, goldenPoints),
		FigureOpts{RunsPerPoint: 1, SweepWorkers: sweepWorkers})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum := sha256.Sum256([]byte(fig.CSV()))
	return hex.EncodeToString(sum[:])
}

// readFigureGoldens parses figureGoldensFile into figure -> digest.
func readFigureGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(figureGoldensFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestFigureGoldens -update to create it)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", figureGoldensFile, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFigureGoldens pins every figure's CSV bytes at a truncated scale.
// A change meant to preserve behaviour must reproduce every line; a
// change that alters a figure on purpose re-pins with -update in a
// commit of its own that says why.
func TestFigureGoldens(t *testing.T) {
	got := make(map[string]string)
	for _, name := range FigureNames() {
		got[name] = figureDigest(t, name, 0)
	}
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(figureGoldensFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFigureGoldens(t)
	for name, sum := range got {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no line in %s", name, figureGoldensFile)
		case w != sum:
			t.Errorf("%s: CSV sha256 = %s, want %s", name, sum, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: %s names no figure", figureGoldensFile, name)
		}
	}
}
