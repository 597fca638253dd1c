package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches a Markdown inline link and captures its target, without
// an optional quoted title.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// TestDocLinksResolve: every relative link in the repo's prose — the
// README, CHANGES, ROADMAP, bench/*.md and docs/**/*.md — names a file
// that exists, so moving or shrinking a document cannot strand a link.
// Anchors are not checked; absolute URLs are skipped.
func TestDocLinksResolve(t *testing.T) {
	const root = "../.."
	files := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "CHANGES.md"),
		filepath.Join(root, "ROADMAP.md"),
	}
	bench, err := filepath.Glob(filepath.Join(root, "bench", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, bench...)
	err = filepath.WalkDir(filepath.Join(root, "docs"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(src), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			checked++
			if _, err := os.Stat(filepath.Join(filepath.Dir(file), target)); err != nil {
				rel, _ := filepath.Rel(root, file)
				t.Errorf("%s: link %q names no file", filepath.ToSlash(rel), m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no relative link found in %d files: the pattern no longer matches the docs", len(files))
	}
}
