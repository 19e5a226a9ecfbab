// Command pathsep-lint is the repo's custom static-analysis suite (see
// internal/analyzers): the go/analysis passes that enforce pathsep's
// correctness invariants, from nil-safe observability to the determinism
// trio (maporder, slotwrite, sortcmp).
//
// It is a standard unitchecker binary, so it runs in two ways:
//
//	go vet -vettool=$(pwd)/bin/pathsep-lint ./...   # as a vettool
//	bin/pathsep-lint ./...                          # standalone
//
// Standalone invocations re-exec `go vet -vettool=<self>` with the given
// package patterns, so the go command performs package loading, caching and
// dependency export-data plumbing in both modes. `make lint` builds the
// cached binary under bin/ and runs it over ./....
//
// With -json as the first argument, standalone mode emits one JSON
// diagnostic per line on stdout — {"file","line","col","analyzer",
// "message"} — instead of go vet's grouped text, and exits 1 when there
// is at least one finding. Under GITHUB_ACTIONS=true it also prints
// ::error workflow annotations, which is how CI renders findings inline
// on pull requests. -out=FILE additionally writes the NDJSON stream to
// FILE (created even when there are no findings), which is how CI
// captures the findings artifact without annotation lines mixed in.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"pathsep/internal/analyzers"
)

func main() {
	args := os.Args[1:]
	if vettoolInvocation(args) {
		unitchecker.Main(analyzers.All()...)
		return
	}
	jsonMode := len(args) > 0 && args[0] == "-json"
	if jsonMode {
		args = args[1:]
	}
	outPath := ""
	if jsonMode && len(args) > 0 && strings.HasPrefix(args[0], "-out=") {
		outPath = strings.TrimPrefix(args[0], "-out=")
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pathsep-lint [-json [-out=FILE]] <package patterns>  (e.g. pathsep-lint ./...)")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathsep-lint: cannot locate own binary: %v\n", err)
		os.Exit(1)
	}
	if jsonMode {
		os.Exit(runJSON(self, args, outPath))
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "pathsep-lint: %v\n", err)
		os.Exit(1)
	}
}

// vettoolInvocation reports whether the go command is driving us as a
// vettool: it probes with -V=full and -flags, then invokes with a single
// *.cfg argument per package.
func vettoolInvocation(args []string) bool {
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") || a == "-flags" || strings.HasPrefix(a, "-V") {
			return true
		}
	}
	return false
}

// finding is one NDJSON output record.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// collect re-execs `go vet -vettool=<self> -json` and reflows the
// per-package JSON blocks it writes to stderr into a sorted finding
// slice. A non-zero returned code means vet failed for a reason other
// than findings (build error, bad pattern); its stderr has already been
// relayed.
func collect(self string, patterns []string) ([]finding, int) {
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self, "-json"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()

	// go vet -json interleaves "# <package>" comment lines with one JSON
	// object per package; strip the comments and decode the object stream.
	var stream bytes.Buffer
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		stream.WriteString(line)
		stream.WriteByte('\n')
	}
	var findings []finding
	dec := json.NewDecoder(bytes.NewReader(stream.Bytes()))
	for {
		var pkgs map[string]map[string][]struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		if err := dec.Decode(&pkgs); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			// Not a diagnostics stream: a build or vet failure. Relay it
			// verbatim so the cause is visible.
			os.Stderr.Write(stderr.Bytes())
			var ee *exec.ExitError
			if errors.As(runErr, &ee) {
				return nil, ee.ExitCode()
			}
			return nil, 1
		}
		for _, byAnalyzer := range pkgs {
			for analyzer, diags := range byAnalyzer {
				for _, d := range diags {
					file, line, col := splitPosn(d.Posn)
					findings = append(findings, finding{
						File: file, Line: line, Col: col,
						Analyzer: analyzer, Message: d.Message,
					})
				}
			}
		}
	}
	if len(findings) == 0 && runErr != nil {
		os.Stderr.Write(stderr.Bytes())
		var ee *exec.ExitError
		if errors.As(runErr, &ee) {
			return nil, ee.ExitCode()
		}
		return nil, 1
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, 0
}

// runJSON prints one NDJSON diagnostic per stdout line (mirrored to
// outPath when set — created even when empty, so the CI artifact always
// exists) and returns the exit code: 1 when any finding fired, the vet
// error code when vet itself failed, 0 otherwise.
func runJSON(self string, patterns []string, outPath string) int {
	findings, code := collect(self, patterns)
	if code != 0 {
		return code
	}
	sinks := []io.Writer{os.Stdout}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathsep-lint: %v\n", err)
			return 1
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	out := json.NewEncoder(io.MultiWriter(sinks...))
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, f := range findings {
		if err := out.Encode(f); err != nil {
			fmt.Fprintf(os.Stderr, "pathsep-lint: %v\n", err)
			return 1
		}
		if annotate {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=%s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// splitPosn splits a "file.go:line:col" position, tolerating a missing
// column or line.
func splitPosn(posn string) (file string, line, col int) {
	file = posn
	for _, p := range []*int{&col, &line} {
		i := strings.LastIndexByte(file, ':')
		if i < 0 {
			break
		}
		n, err := strconv.Atoi(file[i+1:])
		if err != nil {
			break
		}
		*p = n
		file = file[:i]
	}
	if line == 0 && col != 0 {
		line, col = col, 0 // only one numeric suffix: it was the line
	}
	return file, line, col
}
