package cellrel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testName is a test, fuzz target or benchmark name as it is spelled in
// prose or in a pattern.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// TestVerifyScriptIsTheOnlyTestList holds ci/verify.sh, the one list of the
// commands CI runs, to its rule. Every alternative of a -run, -fuzz or
// -bench pattern there must match a function in a package its command
// targets: `go test -run` passes silently when nothing matches, so a
// renamed test would drop out of a repeated set unseen. Every fuzz target
// in the tree must match a -fuzz alternative of a command that targets its
// package: `go test` alone runs only a target's seeds. No name may sit on
// two lines of the script, and ci.yml, the verify skill and README name
// none: they describe the stages, the script and the tests' own comments
// say which test runs where and why.
func TestVerifyScriptIsTheOnlyTestList(t *testing.T) {
	script, err := os.ReadFile("ci/verify.sh")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(script), "\n")

	checked := map[string]int{}
	fuzzed := map[string][]string{} // a package argument's -fuzz alternatives
	for i, line := range lines {
		words := shellWords(line)
		at := -1
		for j := 0; j+1 < len(words); j++ {
			if words[j] == "go" && words[j+1] == "test" {
				at = j + 2
				break
			}
		}
		if at < 0 {
			continue
		}
		patterns, pkgs := goTestArgs(words[at:])
		if len(patterns) == 0 {
			continue
		}
		var funcs []string
		for _, pkg := range pkgs {
			funcs = append(funcs, testFuncs(t, pkg)...)
		}
		for flag, pattern := range patterns {
			if pattern == "^$" { // the conventional "run nothing"
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				checked[flag]++
				if flag == "fuzz" {
					for _, pkg := range pkgs {
						fuzzed[pkg] = append(fuzzed[pkg], alt)
					}
				}
				if !matchesFunc(t, flag, alt, funcs) {
					t.Errorf("ci/verify.sh:%d: -%s alternative %q matches no function in %v", i+1, flag, alt, pkgs)
				}
			}
		}
	}
	for _, flag := range []string{"run", "fuzz", "bench"} {
		if checked[flag] == 0 {
			t.Errorf("ci/verify.sh: found no -%s pattern to check", flag)
		}
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg := "./" + filepath.ToSlash(path)
		for _, name := range testFuncs(t, pkg) {
			if !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			if !slices.ContainsFunc(fuzzed[pkg], func(alt string) bool { return matchesFunc(t, "fuzz", alt, []string{name}) }) {
				t.Errorf("ci/verify.sh fuzzes no %s: no -fuzz alternative for %s matches it", name, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	firstLine := map[string]int{}
	for i, line := range lines {
		for _, name := range testName.FindAllString(line, -1) {
			if at, ok := firstLine[name]; ok && at != i+1 {
				t.Errorf("ci/verify.sh names %s on lines %d and %d", name, at, i+1)
			} else if !ok {
				firstLine[name] = i + 1
			}
		}
	}

	for _, doc := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if names := testName.FindAllString(string(b), -1); len(names) > 0 {
			t.Errorf("%s names tests, fuzz targets or benchmarks: %v", doc, names)
		}
	}
}

// shellWords splits a script line the way the shell does for the simple
// commands ci/verify.sh holds: blanks separate words, quotes group them,
// and a comment ends the line.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			w.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words, inWord = append(words, w.String()), false
				w.Reset()
			}
		case c == '#' && !inWord:
			i = len(line)
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// goTestArgs reads the -run, -fuzz and -bench patterns and the package
// arguments of a `go test` command line, up to the first pipe or redirect.
func goTestArgs(args []string) (patterns map[string]string, pkgs []string) {
	patterns = map[string]string{}
	boolean := map[string]bool{"race": true, "benchmem": true, "short": true, "v": true, "cover": true, "json": true}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "|" || a == ";" || a == "&&" || a == "||" || strings.HasPrefix(a, ">") {
			break
		}
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasValue && !boolean[name] && i+1 < len(args) {
			i++
			value = args[i]
		}
		if name == "run" || name == "fuzz" || name == "bench" {
			patterns[name] = value
		}
	}
	return patterns, pkgs
}

// testFuncs lists the top-level functions of the _test.go files in the
// package a `go test` argument names; "./..." names every package.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dirs := []string{pkg}
	if rest, ok := strings.CutSuffix(pkg, "/..."); ok {
		dirs = nil
		err := filepath.WalkDir(rest, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var funcs []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs = append(funcs, fn.Name.Name)
				}
			}
		}
	}
	return funcs
}

// matchesFunc reports whether one alternative of a -flag pattern matches a
// function that flag selects: -run tests, fuzz targets' seeds and examples,
// -fuzz fuzz targets, -bench benchmarks.
func matchesFunc(t *testing.T, flag, alt string, funcs []string) bool {
	t.Helper()
	re, err := regexp.Compile(alt)
	if err != nil {
		t.Fatalf("-%s alternative %q: %v", flag, alt, err)
	}
	prefixes := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "fuzz": {"Fuzz"}, "bench": {"Benchmark"}}[flag]
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
