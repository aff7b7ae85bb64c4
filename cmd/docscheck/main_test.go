package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRepo lays out a minimal repository with one good link, one broken
// link, one documented flag and one undocumented flag.
func fakeRepo(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "See [the guide](docs/GUIDE.md) and [gone](docs/MISSING.md).\nUse `-scale N` to size the graph.\n")
	write("docs/GUIDE.md", "# Guide\n\n## Section\n\nBack to [README](../README.md) and [section](#section) and [site](https://example.com/x.md).\n")
	write("cmd/tool/main.go", `package main

import "flag"

var (
	scale = flag.Int("scale", 16, "documented")
	ghost = flag.Bool("ghost", false, "undocumented")
)

func main() { flag.Parse(); _ = scale; _ = ghost }
`)
	write("cmd/tool/main_test.go", `package main

import "flag"

var testOnly = flag.String("test-only", "", "test flags are exempt")
`)
	return root
}

func TestCollect(t *testing.T) {
	root := fakeRepo(t)
	md, goSrc, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(md) != 2 {
		t.Fatalf("markdown files = %v, want 2", md)
	}
	if len(goSrc) != 1 || !strings.HasSuffix(goSrc[0], "main.go") {
		t.Fatalf("cmd sources = %v, want just cmd/tool/main.go", goSrc)
	}
}

func TestCheckLinks(t *testing.T) {
	root := fakeRepo(t)
	md, _, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	problems := checkLinks(root, md)
	if len(problems) != 1 || !strings.Contains(problems[0], "docs/MISSING.md") {
		t.Fatalf("link problems = %v, want one about docs/MISSING.md", problems)
	}
}

func TestCheckFlags(t *testing.T) {
	root := fakeRepo(t)
	md, goSrc, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	problems := checkFlags(root, md, goSrc)
	if len(problems) != 1 || !strings.Contains(problems[0], "-ghost") {
		t.Fatalf("flag problems = %v, want one about -ghost", problems)
	}
}

// TestCheckFlagsFlagSetOutsideCmd registers flags the way a package
// shared by several commands does — FlagSet methods, outside cmd/ — and
// expects the undocumented one to be reported.
func TestCheckFlagsFlagSetOutsideCmd(t *testing.T) {
	root := fakeRepo(t)
	path := filepath.Join(root, "internal", "spec", "spec.go")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package spec

import "flag"

func Bind(fs *flag.FlagSet, scale *int, hidden *int64) {
	fs.IntVar(scale, "scale", 16, "documented")
	fs.Int64Var(hidden, "hidden-knob", 0, "undocumented")
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	md, goSrc, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	var hidden, ghost int
	for _, p := range checkFlags(root, md, goSrc) {
		if strings.Contains(p, "-hidden-knob") && strings.Contains(p, filepath.Join("internal", "spec", "spec.go")) {
			hidden++
		}
		if strings.Contains(p, "-ghost") {
			ghost++
		}
	}
	if hidden != 1 || ghost != 1 {
		t.Fatalf("want -hidden-knob and -ghost reported once each, got %d and %d", hidden, ghost)
	}
}

func TestSlugify(t *testing.T) {
	for _, tc := range []struct{ heading, want string }{
		{"Flight recorder & post-mortems", "flight-recorder--post-mortems"},
		{"Hello, World!", "hello-world"},
		{"snake_case and-dash", "snake_case-and-dash"},
		{"  padded  ", "padded"},
		{"`-flags` in code", "-flags-in-code"},
		{"Mixed CASE 123", "mixed-case-123"},
	} {
		if got := slugify(tc.heading); got != tc.want {
			t.Errorf("slugify(%q) = %q, want %q", tc.heading, got, tc.want)
		}
	}
}

func TestHeadingAnchors(t *testing.T) {
	doc := "# Top\n\n## Dup\n\n## Dup\n\n```\n# not a heading\n```\n\n## Closing ##\n"
	set := headingAnchors(doc)
	for _, want := range []string{"top", "dup", "dup-1", "closing"} {
		if !set[want] {
			t.Errorf("anchor %q missing from %v", want, set)
		}
	}
	if set["not-a-heading"] {
		t.Errorf("fenced pseudo-heading leaked into anchors: %v", set)
	}
}

// TestCheckAnchors lays out a repo where the only problems are fragment
// mismatches: a cross-file #fragment naming no heading, a bare same-file
// #fragment naming no heading, and a fragment pointing at a heading that
// only exists inside a code fence.
func TestCheckAnchors(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.md", "# Top\n\n"+
		"## Flight recorder & post-mortems\n\n"+
		"```\n# Fenced\n```\n\n"+
		"[ok cross](b.md#real)\n"+
		"[bad cross](b.md#nope)\n"+
		"[ok self](#flight-recorder--post-mortems)\n"+
		"[bad self](#missing)\n"+
		"[fenced](#fenced)\n")
	write("b.md", "## Real\n\nSee [top](a.md#top).\n")
	md, _, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	problems := checkLinks(root, md)
	if len(problems) != 3 {
		t.Fatalf("anchor problems = %v, want 3", problems)
	}
	for i, frag := range []string{"#nope", "#missing", "#fenced"} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("problem %d about %s missing from %v", i, frag, problems)
		}
	}
}

// TestRepoIsClean runs both checks over the real repository — the same
// gate `make docs-check` applies.
func TestRepoIsClean(t *testing.T) {
	root := "../.."
	md, goSrc, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	if problems := append(checkLinks(root, md), checkFlags(root, md, goSrc)...); len(problems) > 0 {
		t.Fatalf("docs drift:\n%s", strings.Join(problems, "\n"))
	}
}
