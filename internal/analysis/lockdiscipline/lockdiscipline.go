// Package lockdiscipline enforces the repository's lock hygiene and lock
// ordering. The serving path nests two locks — stream.Table's RW lock
// (ingestion vs. release ordering) outside engine.DatasetIndex's lock
// (count-vector maintenance) — and a single inverted acquisition is a
// deadlock that only manifests under concurrent ingest + release load,
// exactly the schedule the race detector rarely explores. Three rules,
// all per-function statement-order approximations on non-test code:
//
//  1. No mutex value copies: a parameter or assignment that copies a
//     sync.Mutex/RWMutex (directly or inside a struct) duplicates lock
//     state; the copy guards nothing.
//  2. Every Lock/RLock must be followed, later in the same function, by a
//     matching Unlock/RUnlock on the same receiver — as a call, a defer,
//     or a method-value reference (the server hands e.relMu.Unlock to its
//     caller as an unlock closure). Single-statement wrapper methods
//     named Lock/RLock/etc. are exempt: forwarding is their whole job.
//  3. Rank ordering: with Table ranked before DatasetIndex, acquiring a
//     lower-ranked lock while a higher-ranked one is still held is an
//     inversion. Re-acquiring a receiver already held, in any mode, is
//     flagged as a self-deadlock: Go mutexes are not reentrant, and an
//     RLock queued behind a waiting writer blocks on the RWMutex its own
//     goroutine holds for reading. The check looks one call deep into
//     the package: x.m() made while x.f is held is flagged when m's body
//     locks its own receiver's f, as a delete that holds a router's
//     write lock and calls its RLock-taking lookup would.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"blowfish/internal/analysis"
)

// Config tunes the analyzer; zero fields take the repository defaults.
type Config struct {
	// Packages are import-path suffixes to audit.
	Packages []string
	// RankOrder names lock-owning types outermost-first: a type earlier in
	// the list must be locked before any later one. The repository's order
	// is Table (ingestion fence) outside DatasetIndex (count vectors).
	RankOrder []string
}

func (c *Config) fill() {
	if len(c.Packages) == 0 {
		c.Packages = []string{
			"blowfish", "internal/engine", "internal/stream", "internal/server",
			"internal/service", "internal/shard",
		}
	}
	if len(c.RankOrder) == 0 {
		c.RankOrder = []string{"Table", "DatasetIndex"}
	}
}

// Default audits the repository's locking layers with the documented
// Table-before-DatasetIndex order.
var Default = New(Config{})

// New constructs the analyzer with the given configuration.
func New(cfg Config) *analysis.Analyzer {
	cfg.fill()
	return &analysis.Analyzer{
		Name: "lockdiscipline",
		Doc:  "flag mutex copies, unpaired locks, and Table/DatasetIndex rank inversions (deadlock freedom)",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *analysis.Pass, cfg Config) error {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), cfg.Packages) {
		return nil
	}
	r := &ranks{order: cfg.RankOrder, ranked: make(map[string]int)}
	for i, name := range cfg.RankOrder {
		r.ranked[name] = i
	}
	decls := funcDecls(pass)
	acq := make(acquirers)
	for _, fd := range decls {
		acq.summarize(pass, r, fd)
	}
	for _, fd := range decls {
		checkCopies(pass, fd)
		if fd.Body != nil && !isLockWrapper(fd) {
			checkPairing(pass, r, acq, fd)
			checkOrdering(pass, r, acq, fd)
		}
	}
	return nil
}

// funcDecls lists the package's non-test function declarations.
func funcDecls(pass *analysis.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// acquirers maps each method declared in the package to the receiver
// locks its own body acquires, in any mode, as the suffix after the
// receiver name ("" for the receiver itself, ".mu" for a field).
type acquirers map[*types.Func][]string

func (a acquirers) summarize(pass *analysis.Pass, r *ranks, fd *ast.FuncDecl) {
	if fd.Body == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	self := fd.Recv.List[0].Names[0].Name
	for _, e := range collectEvents(pass, r, nil, fd) {
		if !e.acquire {
			continue
		}
		if suffix, ok := strings.CutPrefix(e.recv, self); ok && (suffix == "" || suffix[0] == '.') {
			if !slices.Contains(a[fn], suffix) {
				a[fn] = append(a[fn], suffix)
			}
		}
	}
}

// isLockWrapper exempts forwarding methods like Table.RLock.
func isLockWrapper(fd *ast.FuncDecl) bool {
	switch fd.Name.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// --- rule 1: mutex copies ---

func checkCopies(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok {
				continue
			}
			if holdsMutex(tv.Type) {
				pass.Reportf(field.Type.Pos(),
					"parameter passes a mutex by value: the callee locks a copy that guards nothing; pass a pointer")
			}
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			switch rhs.(type) {
			case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
				// Copying an existing value; literals and calls produce
				// fresh, never-locked state and are fine.
			default:
				continue
			}
			tv, ok := pass.TypesInfo.Types[rhs]
			if !ok || !holdsMutex(tv.Type) {
				continue
			}
			pass.Reportf(rhs.Pos(),
				"assignment copies a value containing a mutex: lock state is duplicated, and locking the copy guards nothing")
		}
		return true
	})
}

// holdsMutex reports whether t is sync.Mutex/RWMutex or a struct carrying
// one by value (fields checked recursively).
func holdsMutex(t types.Type) bool {
	if named := analysis.NamedOf(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if holdsMutex(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// --- rules 2 and 3: pairing and ordering ---

// lockEvent is one acquire/release in statement order.
type lockEvent struct {
	pos      token.Pos
	recv     string // rendered receiver, e.g. "de.tbl" or "x.mu"
	rank     int    // index into RankOrder, -1 if unranked
	acquire  bool
	deferred bool
	read     bool // RLock/RUnlock
	// callee is set on a call event: a same-package method call whose
	// body acquires recv (the call's receiver plus the locked suffix).
	callee string
}

func checkPairing(pass *analysis.Pass, r *ranks, acq acquirers, fd *ast.FuncDecl) {
	events := collectEvents(pass, r, acq, fd)
	// Method-value references (e.relMu.Unlock handed out as a closure)
	// count as releases anywhere later in the function.
	releases := releaseMentions(pass, fd)
	for _, e := range events {
		if !e.acquire || e.callee != "" {
			continue
		}
		paired := false
		for _, r := range releases {
			if r.recv == e.recv && r.pos > e.pos && r.read == e.read {
				paired = true
				break
			}
		}
		if !paired {
			op := "Lock"
			if e.read {
				op = "RLock"
			}
			pass.Reportf(e.pos,
				"%s.%s with no later matching unlock in this function: an early return or panic leaves the lock held forever",
				e.recv, op)
		}
	}
}

func checkOrdering(pass *analysis.Pass, r *ranks, acq acquirers, fd *ast.FuncDecl) {
	events := collectEvents(pass, r, acq, fd)
	held := make(map[string]lockEvent) // recv -> acquiring event
	for _, e := range events {
		if e.callee != "" {
			if _, ok := held[e.recv]; ok {
				pass.Reportf(e.pos,
					"%s called while %s is held in this function: its body acquires %s again, and Go mutexes are not reentrant, this self-deadlocks",
					e.callee, e.recv, e.recv)
			}
			continue
		}
		if !e.acquire {
			// A deferred unlock runs at function exit, not here; only a
			// direct unlock ends the hold at this point in the order.
			if !e.deferred {
				delete(held, e.recv)
			}
			continue
		}
		if _, ok := held[e.recv]; ok {
			pass.Reportf(e.pos,
				"%s locked while already held in this function: Go mutexes are not reentrant, this self-deadlocks", e.recv)
		}
		if e.rank >= 0 {
			for _, h := range held {
				if h.rank > e.rank {
					pass.Reportf(e.pos,
						"lock order inversion: %s (rank %d, %s) acquired while %s (rank %d, %s) is held; the documented order is %s",
						e.recv, e.rank, r.order[e.rank], h.recv, h.rank, r.order[h.rank],
						strings.Join(r.order, " before "))
				}
			}
		}
		held[e.recv] = e
	}
}

// collectEvents walks the body in source order gathering lock/unlock
// calls and, given acquirer summaries, the calls to methods that lock
// their receiver (deferred and go calls do not run here and are not
// call events). Receivers are compared by rendered source text — an
// approximation that is exact for the field-selector receivers the
// repository uses (s.mu, de.tbl, x.mu).
func collectEvents(pass *analysis.Pass, r *ranks, acq acquirers, fd *ast.FuncDecl) []lockEvent {
	var events []lockEvent
	spawned := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		deferred := false
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.GoStmt:
			spawned[n.Call] = true
			return true
		case *ast.DeferStmt:
			call, deferred = n.Call, true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !deferred
		}
		var acquire, read bool
		switch sel.Sel.Name {
		case "Lock":
			acquire = true
		case "RLock":
			acquire, read = true, true
		case "Unlock":
		case "RUnlock":
			read = true
		default:
			if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil && !deferred && !spawned[call] {
				for _, suffix := range acq[fn.Origin()] {
					events = append(events, lockEvent{
						pos:    call.Pos(),
						recv:   types.ExprString(sel.X) + suffix,
						callee: types.ExprString(sel),
					})
				}
			}
			return !deferred
		}
		if !isLockTarget(pass.TypesInfo, call, r.ranked) {
			return !deferred
		}
		events = append(events, lockEvent{
			pos:      call.Pos(),
			recv:     types.ExprString(sel.X),
			rank:     r.rankOf(pass.TypesInfo, sel.X),
			acquire:  acquire,
			deferred: deferred,
			read:     read,
		})
		return !deferred
	})
	return events
}

// releaseMentions finds every unlock mention — call, defer, or bare
// method-value reference — with its receiver text.
func releaseMentions(pass *analysis.Pass, fd *ast.FuncDecl) []lockEvent {
	var out []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var read bool
		switch sel.Sel.Name {
		case "Unlock":
		case "RUnlock":
			read = true
		default:
			return true
		}
		out = append(out, lockEvent{pos: sel.Pos(), recv: types.ExprString(sel.X), read: read})
		return true
	})
	return out
}

// ranks resolves receiver expressions to the configured lock order.
type ranks struct {
	order  []string
	ranked map[string]int
}

// rankOf returns the rank of the lock owner: the receiver's named type
// if ranked, else — for x.mu style fields — the named type of the base.
func (r *ranks) rankOf(info *types.Info, recv ast.Expr) int {
	if n := rankName(info, recv); n != "" {
		if i, ok := r.ranked[n]; ok {
			return i
		}
	}
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if n := rankName(info, sel.X); n != "" {
			if i, ok := r.ranked[n]; ok {
				return i
			}
		}
	}
	return -1
}

func rankName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	named := analysis.NamedOf(tv.Type)
	if named == nil {
		return ""
	}
	return named.Obj().Name()
}

// isLockTarget confirms the call is a real lock operation: a sync
// mutex method, or a method on a ranked lock-owning type (the Table
// wrapper methods).
func isLockTarget(info *types.Info, call *ast.CallExpr, ranked map[string]int) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := analysis.NamedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	_, ok = ranked[named.Obj().Name()]
	return ok
}
