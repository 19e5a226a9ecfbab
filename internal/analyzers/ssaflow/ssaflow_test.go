package ssaflow_test

import (
	"fmt"
	"go/types"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"pathsep/internal/analyzers/analyzertest"
	"pathsep/internal/analyzers/ssaflow"
)

// facts reports every declared function's summary as diagnostics at the
// function's name, one per fact, so the want comments in testdata/src/a
// pin what ssaflow computes: each parameter's direct uses, its sideways
// sink and its transitive flow as ParamFlow resolves it (the uses that
// leave the package's summaries, the first sink met, and whether a
// function on the chain returns it); and each result's sources.
var facts = &analysis.Analyzer{
	Name:     "ssaflowfacts",
	Doc:      "report ssaflow summaries as diagnostics",
	Requires: []*analysis.Analyzer{ssaflow.Analyzer},
	Run:      reportFacts,
}

func reportFacts(pass *analysis.Pass) (interface{}, error) {
	res := pass.ResultOf[ssaflow.Analyzer].(*ssaflow.Result)
	for fn, s := range res.Summaries {
		at := s.Decl.Name.Pos()
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if uses := s.ParamUses[i]; len(uses) > 0 {
				pass.Reportf(at, "uses p%d: %s", i, useList(uses))
			}
			if why := s.ParamSunk[i]; why != "" {
				pass.Reportf(at, "sunk p%d: %s", i, why)
			}
			fl := res.ParamFlow(fn, i)
			var terminal []ssaflow.ParamUse
			for _, u := range fl.Uses {
				if res.SummaryOf(u.Callee) == nil {
					terminal = append(terminal, u)
				}
			}
			var parts []string
			if len(terminal) > 0 {
				parts = append(parts, useList(terminal))
			}
			if fl.Sunk != "" {
				parts = append(parts, "sunk "+fl.Sunk)
			}
			if fl.Returned {
				parts = append(parts, "returned")
			}
			if len(parts) > 0 {
				pass.Reportf(at, "flow p%d: %s", i, strings.Join(parts, "; "))
			}
		}
		for j := 0; j < sig.Results().Len(); j++ {
			var srcs []string
			for _, p := range s.Returns[j] {
				srcs = append(srcs, fmt.Sprintf("p%d", p))
			}
			if len(srcs) > 0 {
				pass.Reportf(at, "returns r%d: %s", j, strings.Join(srcs, ", "))
			}
		}
	}
	return nil, nil
}

// useList renders call sites as callee@argument.
func useList(uses []ssaflow.ParamUse) string {
	out := make([]string, len(uses))
	for k, u := range uses {
		out[k] = fmt.Sprintf("%s@%d", u.Callee.Name(), u.Arg)
	}
	return strings.Join(out, ", ")
}

func TestSummaries(t *testing.T) {
	analyzertest.Run(t, "testdata", facts, "a")
}
