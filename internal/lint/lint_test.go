package lint

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sideeffect/internal/lang/token"
)

// TestRegistryInvariants pins the registry contract: IDs strictly
// ascending (append-only), names unique, docs present.
func TestRegistryInvariants(t *testing.T) {
	rules := Rules()
	if len(rules) != 7 {
		t.Fatalf("registry has %d rules, want 7", len(rules))
	}
	names := map[string]bool{}
	for i, rl := range rules {
		if i > 0 && rules[i-1].ID >= rl.ID {
			t.Errorf("IDs out of order: %s before %s", rules[i-1].ID, rl.ID)
		}
		if !strings.HasPrefix(rl.ID, "SE") {
			t.Errorf("rule ID %q lacks the SE prefix", rl.ID)
		}
		if names[rl.Name] {
			t.Errorf("duplicate rule name %q", rl.Name)
		}
		names[rl.Name] = true
		if rl.Doc == "" || rl.run == nil {
			t.Errorf("%s: missing doc or run", rl.ID)
		}
	}
}

func TestSeverity(t *testing.T) {
	for name, want := range map[string]Severity{"info": Info, "warning": Warning, "error": Error} {
		got, err := ParseSeverity(name)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("String() round-trip: %q → %q", name, got.String())
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity accepted an unknown name")
	}
	b, err := json.Marshal(Warning)
	if err != nil || string(b) != `"warning"` {
		t.Errorf("MarshalJSON = %s, %v", b, err)
	}
}

func TestConfigSelection(t *testing.T) {
	// Zero config: everything on at defaults.
	sel, err := Config{}.selection()
	if err != nil {
		t.Fatal(err)
	}
	for _, rl := range Rules() {
		if sev, on := sel.level(rl); !on || sev != rl.Default {
			t.Errorf("%s: level = %v, %v under the zero config", rl.ID, sev, on)
		}
	}
	// Enable by slug narrows; Disable by ID subtracts afterwards.
	sel, err = Config{Enable: []string{"pure-procedure", "SE004"}, Disable: []string{"SE004"}}.selection()
	if err != nil {
		t.Fatal(err)
	}
	var on []string
	for _, rl := range Rules() {
		if _, ok := sel.level(rl); ok {
			on = append(on, rl.ID)
		}
	}
	if !reflect.DeepEqual(on, []string{"SE002"}) {
		t.Errorf("enabled after Enable+Disable: %v", on)
	}
	// Unknown keys fail loudly.
	for _, cfg := range []Config{
		{Enable: []string{"SE999"}},
		{Disable: []string{"bogus"}},
		{Severity: map[string]Severity{"nope": Error}},
	} {
		if _, err := cfg.selection(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSortDiagnostics(t *testing.T) {
	d := func(line, col int, rule, subject string) Diagnostic {
		return Diagnostic{Rule: rule, Subject: subject, Pos: token.Pos{Line: line, Col: col}}
	}
	ds := []Diagnostic{
		d(2, 1, "SE004", "g"),
		d(1, 5, "SE002", "p"),
		d(1, 5, "SE001", "x"),
		d(1, 2, "SE007", "i"),
		d(1, 5, "SE001", "a"),
	}
	sortDiagnostics(ds)
	var got []string
	for _, x := range ds {
		got = append(got, x.Rule+":"+x.Subject)
	}
	want := []string{"SE007:i", "SE001:a", "SE001:x", "SE002:p", "SE004:g"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}

	// Findings that tie on every key and differ only in Proc keep their
	// emission order. Real runs produce such ties: SE005's message does
	// not name the caller, and builder-made programs carry zero
	// positions. More than 12 ties take an unstable sort past its
	// insertion-sort cutoff, where it would reorder them.
	const ties = 40
	ds = ds[:0]
	var wantProcs []string
	for i := 0; i < ties; i++ {
		proc := fmt.Sprintf("p%02d", (i*17)%ties) // emission order differs from name order
		wantProcs = append(wantProcs, proc)
		ds = append(ds,
			Diagnostic{Rule: "SE005", Proc: proc, Subject: "q", Message: "call to q modifies only {g}"},
			d(ties-i, 1, "SE001", "x"), // interleaved non-ties, emitted in reverse position order
		)
	}
	sortDiagnostics(ds)
	var gotProcs []string
	for i, x := range ds {
		if i < ties {
			gotProcs = append(gotProcs, x.Proc)
		} else if x.Pos.Line != i-ties+1 {
			t.Fatalf("entry %d at line %d, want %d", i, x.Pos.Line, i-ties+1)
		}
	}
	if !reflect.DeepEqual(gotProcs, wantProcs) {
		t.Errorf("tied findings reordered:\n got %v\nwant %v", gotProcs, wantProcs)
	}
}

// TestWritersOnSyntheticReport drives the writers without an analysis:
// zero positions clamp to 1:1, and the SARIF rule index stays aligned
// with the registry.
func TestWritersOnSyntheticReport(t *testing.T) {
	rep := &Report{
		Diags: []Diagnostic{
			{Rule: "SE004", Name: "dead-global", Severity: Warning, Subject: "g", Message: "m"},
		},
		Counts: map[string]int{"SE004": 1},
	}
	files := []FileReport{{File: "synth.mpl", Report: rep}}

	text := Text(files)
	if text != "synth.mpl:1:1: warning: m [SE004]\n" {
		t.Errorf("Text = %q", text)
	}

	out, err := SARIF(files)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	res := doc.Runs[0].Results[0]
	if doc.Runs[0].Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
		t.Errorf("ruleIndex %d does not resolve to %s", res.RuleIndex, res.RuleID)
	}

	jsonOut, err := JSON(files)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut, `"findings": 1`) || !strings.Contains(jsonOut, `"line": 1`) {
		t.Errorf("JSON output: %s", jsonOut)
	}

	flat := SortedCounts(map[string]int{"SE007": 2, "SE001": 1})
	if flat[0].Rule != "SE001" || flat[1].Rule != "SE007" {
		t.Errorf("SortedCounts order: %v", flat)
	}
}
