// Package globalrand forbids the process-global math/rand source
// everywhere outside tests.
//
// Reproducibility demands that every random draw trace to an explicitly
// seeded generator owned by a component (workload shares, fault verdicts,
// retry jitter all carry their own *rand.Rand or stateless hash draws).
// The package-level math/rand functions share one global, lock-guarded
// source: seeding it from one place perturbs draws everywhere else, and
// concurrent callers interleave nondeterministically. This rule applies to
// every package, not just the determinism-critical set — a global draw in
// a daemon flag helper still poisons reproducibility once the sim links it
// in. Constructors (rand.New, rand.NewZipf, rand.NewPCG, rand.NewChaCha8)
// stay legal: they are how you build the seeded instances the rule
// demands.
//
// The one exception is math/rand (v1) rand.NewSource outside tests. It
// builds a lagged-Fibonacci source of 607 words, about 4.9 KB, and the
// simulator once held two per server, which kept the physics step out of
// cache. Production code seeds a 16-byte math/rand/v2 PCG instead.
package globalrand

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"dynamo/internal/lint"
)

// constructors are the package-level math/rand functions that build new
// generators rather than draw from the global one.
var constructors = map[string]bool{
	"New":        true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

var Analyzer = &analysis.Analyzer{
	Name:     "globalrand",
	Doc:      "forbid top-level math/rand functions (global source); require explicitly seeded *rand.Rand instances",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	rep := lint.New(pass, "globalrand")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := typeutil.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // method on an explicit *rand.Rand / *rand.Zipf — fine
		}
		if lint.InTestFile(pass, call.Pos()) {
			return
		}
		if path == "math/rand" && fn.Name() == "NewSource" {
			rep.Reportf(call.Pos(),
				"globalrand: math/rand.NewSource allocates a 4.9 KB source; seed a math/rand/v2 PCG (rand.New(rand.NewPCG(seed, salt))) instead")
			return
		}
		if constructors[fn.Name()] {
			return
		}
		rep.Reportf(call.Pos(),
			"globalrand: use of global %s.%s; draw from an explicitly seeded *rand.Rand instead",
			path, fn.Name())
	})
	return nil, nil
}
