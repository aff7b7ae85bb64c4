// Command docscheck is the documentation lint `make docs-check` runs: it
// fails the build when the docs and the code drift apart.
//
// Two checks, both purely static:
//
//  1. Every intra-repository markdown link resolves. All `[text](target)`
//     links in every tracked .md file are checked against the filesystem
//     (external http(s)/mailto links are skipped). A `#fragment` — on a
//     `file.md#fragment` link or a bare same-file `#fragment` — must match
//     an actual heading anchor of the target document, using GitHub's
//     slug rules (lowercased, punctuation dropped, spaces to hyphens,
//     duplicates suffixed -1, -2, ...).
//  2. Every CLI flag is documented. Each `flag.Xxx("name", ...)` or
//     `fs.XxxVar(&v, "name", ...)` registration under cmd/ or internal/
//     (where flags shared by several commands live) must be mentioned as
//     `-name` in at least one markdown file — a flag nobody can discover
//     is a flag that doesn't exist.
//
// Usage: docscheck [repo-root]   (default ".")
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

var (
	// [text](target) — non-greedy, one line; images share the syntax.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// ATX headings: 1-6 hashes, a space, the heading text.
	mdHeading = regexp.MustCompile(`^(#{1,6})[ \t]+(.+)$`)
	// String/Bool/Int/... flag registrations, including the *Var forms,
	// on the flag package or on a *flag.FlagSet.
	flagDecl = regexp.MustCompile(`\b\w+\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)(?:Var)?\(\s*(?:&?\w+(?:\.\w+)*\s*,\s*)?"([^"]+)"`)
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	mdFiles, goFiles, err := collect(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}

	var problems []string
	problems = append(problems, checkLinks(root, mdFiles)...)
	problems = append(problems, checkFlags(root, mdFiles, goFiles)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d markdown files, %d Go sources: OK\n", len(mdFiles), len(goFiles))
}

// collect walks the repo for markdown files (everywhere) and non-test Go
// sources under cmd/ and internal/, skipping VCS and test fixture
// directories.
func collect(root string) (md, goSrc []string, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(name, ".md"):
			md = append(md, rel)
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			(strings.HasPrefix(rel, "cmd"+string(filepath.Separator)) ||
				strings.HasPrefix(rel, "internal"+string(filepath.Separator))):
			goSrc = append(goSrc, rel)
		}
		return nil
	})
	sort.Strings(md)
	sort.Strings(goSrc)
	return md, goSrc, err
}

// checkLinks verifies every relative markdown link target exists and every
// #fragment names a real heading anchor of its target document.
func checkLinks(root string, mdFiles []string) []string {
	anchors := map[string]map[string]bool{} // cleaned repo-rel .md path -> anchor set
	anchorsOf := func(rel string) map[string]bool {
		rel = filepath.Clean(rel)
		if set, ok := anchors[rel]; ok {
			return set
		}
		var set map[string]bool
		if data, err := os.ReadFile(filepath.Join(root, rel)); err == nil {
			set = headingAnchors(string(data))
		}
		anchors[rel] = set
		return set
	}

	var problems []string
	for _, rel := range mdFiles {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", rel, err))
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target, frag := m[1], ""
			if skipLink(target) {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target, frag = target[:i], target[i+1:]
			}
			targetRel := rel // bare #fragment: the document itself
			if target != "" {
				resolved := filepath.Join(root, filepath.Dir(rel), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s: broken link %q", rel, m[1]))
					continue
				}
				targetRel = filepath.Join(filepath.Dir(rel), filepath.FromSlash(target))
			}
			if frag != "" && strings.HasSuffix(targetRel, ".md") {
				if set := anchorsOf(targetRel); set != nil && !set[frag] {
					problems = append(problems, fmt.Sprintf("%s: link %q: no heading with anchor #%s in %s",
						rel, m[1], frag, filepath.ToSlash(targetRel)))
				}
			}
		}
	}
	return problems
}

func skipLink(target string) bool {
	for _, prefix := range []string{"http://", "https://", "mailto:"} {
		if strings.HasPrefix(target, prefix) {
			return true
		}
	}
	return false
}

// headingAnchors collects the GitHub anchor slugs of a markdown document's
// ATX headings, skipping fenced code blocks. A repeated slug gets the -1,
// -2, ... suffixes GitHub appends.
func headingAnchors(doc string) map[string]bool {
	set := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := mdHeading.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// Closing-sequence form "## Title ##": the trailing hashes are not
		// part of the heading text.
		text := strings.TrimRight(m[2], "#")
		slug := slugify(text)
		n := counts[slug]
		counts[slug]++
		if n > 0 {
			slug = fmt.Sprintf("%s-%d", slug, n)
		}
		set[slug] = true
	}
	return set
}

// slugify applies GitHub's heading-anchor rules: lowercase, keep letters,
// digits, hyphens and underscores, turn spaces into hyphens, drop
// everything else.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// checkFlags verifies every flag registered in goFiles is mentioned as
// `-name` somewhere in the markdown corpus.
func checkFlags(root string, mdFiles, goFiles []string) []string {
	var corpus strings.Builder
	for _, rel := range mdFiles {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue // already reported by checkLinks
		}
		corpus.Write(data)
		corpus.WriteByte('\n')
	}
	docs := corpus.String()

	var problems []string
	for _, rel := range goFiles {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", rel, err))
			continue
		}
		for _, m := range flagDecl.FindAllStringSubmatch(string(data), -1) {
			name := m[1]
			// A documented flag appears as -name followed by a
			// non-flag-name character (space, =, punctuation, EOL).
			mention := regexp.MustCompile(`-` + regexp.QuoteMeta(name) + `([^a-zA-Z0-9_-]|$)`)
			if !mention.MatchString(docs) {
				problems = append(problems, fmt.Sprintf("%s: flag -%s is not mentioned in any .md file", rel, name))
			}
		}
	}
	return problems
}
