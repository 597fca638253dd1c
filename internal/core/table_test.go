package core

import (
	"strings"
	"testing"
)

func TestChainStatsTable(t *testing.T) {
	d := newDeployment(t, Config{})
	owner, err := d.NewOwner("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.InitializePod(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	tbl := ChainStats(d)
	if !strings.Contains(tbl.String(), "height") {
		t.Fatalf("stats table:\n%s", tbl)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "metric_with_long_name"}}
	tbl.Add(1, 2.5)
	tbl.Add("xyz", "v")
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "2.500") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}
