package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/modeled.golden from the current code:
//
//	go test ./internal/bench -run TestModeledGolden -update
//
// A regeneration changes the oracle every later change is held to, so it
// needs a stated reason in CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/modeled.golden")

// TestModeledGolden pins the modeled output of the paper-table sims at full
// float precision: every row of Tables 1–3 for the node sets ncsbench runs,
// E8 (Approach 2), the WAN sweep, and the rendered Figure 4 and Figure 16
// timelines. ncsbench prints two decimals, so a small modeled shift (one
// extra context switch, a reordered wakeup) would pass it unseen; it does
// not pass this.
func TestModeledGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper-table simulation")
	}
	got := modeledOutput()
	path := filepath.Join("testdata", "modeled.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("modeled output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// modeledOutput renders every pinned experiment as text, one row per line.
func modeledOutput() string {
	var b strings.Builder
	eth, ny := Ethernet1995(), NYNET1995()
	section := func(name string, rows any) {
		fmt.Fprintf(&b, "== %s\n", name)
		v := reflect.ValueOf(rows)
		for i := 0; i < v.Len(); i++ {
			b.WriteString(goldenRow(v.Index(i)))
			b.WriteByte('\n')
		}
	}
	section("table1 ethernet", Table1(eth, []int{1, 2, 4, 8}))
	section("table1 nynet", Table1(ny, []int{1, 2, 4}))
	section("table2 ethernet", Table2(eth, []int{2, 4, 8}))
	section("table2 nynet", Table2(ny, []int{2, 4}))
	section("table3 ethernet", Table3(eth, []int{1, 2, 4, 8}))
	section("table3 nynet", Table3(ny, []int{1, 2, 4}))
	section("e8", E8ApproachTwo())
	section("wan", WANSweep())
	fmt.Fprintf(&b, "== figure4\n%s", Figure4())
	fmt.Fprintf(&b, "== figure16\n%s", Figure16())
	return b.String()
}

// goldenRow formats one result struct as space-separated name=value pairs,
// floats in shortest round-trip form so any bit of drift shows.
func goldenRow(v reflect.Value) string {
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var s string
		switch f.Kind() {
		case reflect.Float64:
			s = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		default:
			s = fmt.Sprint(f.Interface())
		}
		parts = append(parts, v.Type().Field(i).Name+"="+s)
	}
	return strings.Join(parts, " ")
}
