package core

import (
	"strings"
	"testing"
)

// TestAblationDurability smoke-runs the durability ablation in quick
// mode: four modes at two ledger lengths, ingestion numbers present, and
// the durable modes reopen at the ingested height.
func TestAblationDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("durability ablation sweeps disk-backed nodes")
	}
	h := &Harness{Quick: true}
	table := h.AblationDurability()
	out := table.String()
	for _, mode := range []string{"memory", "wal-never", "wal-interval", "wal-always"} {
		if !strings.Contains(out, mode) {
			t.Fatalf("mode %s missing from table:\n%s", mode, out)
		}
	}
	if len(table.Rows) != 8 {
		t.Fatalf("want 8 rows, got %d:\n%s", len(table.Rows), out)
	}
}
