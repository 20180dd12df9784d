package interp

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/java/ast"
	"semfeed/internal/obs"
)

// This file is the execute-many half of the compiled engine: Program holds
// the closure code produced by Compile (see compile.go), vm is the per-run
// mutable state, and Cache maps source hashes to compiled Programs so
// repeated grading of identical sources compiles once.
//
// Execution is a CFG dispatch loop in the style of yaegi: every control-flow
// node carries an exec closure that performs its work and returns the next
// node (its tnext or fnext successor), so running a method is
//
//	for n != nil { n, err = n.exec(vm, fr) }
//
// with no recursion over statements and no signal plumbing for
// break/continue/return — those are just edges in the graph.

// execFn performs one control-flow node and returns the successor node.
type execFn func(*vm, *cframe) (*cnode, error)

// exprFn evaluates one expression subtree to a value cell.
type exprFn func(*vm, *cframe) (val, error)

// storeFn writes a value cell through a compiled lvalue.
type storeFn func(*vm, *cframe, val) error

// cnode is one compiled control-flow node. tnext is the ordinary successor;
// fnext is the false/exit branch of conditionals and loop tests. Successor
// pointers are fields (not captured values) so the compiler can backpatch
// forward edges after the target node exists.
type cnode struct {
	exec  execFn
	tnext *cnode
	fnext *cnode
}

// val is a value cell, the unit the compiled engine computes on: frame
// slots, globals, the return register and every closure hold cells. An
// int64 (int, long, short, byte) lives unboxed in n, with intTag in v; any
// other value is boxed in v as the Value the tree-walker uses. Boxing an
// int64 past 255 allocates, so with cells the int loops of step-limited
// runs allocate nothing. A cell is boxed only where its value leaves the
// engine (see boxed).
type val struct {
	n int64
	v Value
}

// intTag marks a cell whose int64 is in n; testing for it compares the
// interface's type word, with no type switch.
type intTag struct{}

// intVal is the cell of an int64.
func intVal(n int64) val { return val{n: n, v: intTag{}} }

// unbox makes the cell of a Value entering the engine: an int64 goes to n.
func unbox(x Value) val {
	if n, ok := x.(int64); ok {
		return intVal(n)
	}
	return val{v: x}
}

// unboxRes unboxes the result of a Value-typed helper (binaryOp, the
// builtins, ...).
func unboxRes(x Value, err error) (val, error) { return unbox(x), err }

func (c val) isInt() bool {
	_, ok := c.v.(intTag)
	return ok
}

// boxed is the cell's Value, for where it leaves the engine: arguments of
// builtins and library methods, array elements, tracer events, operands of
// the Value-typed helpers and Result.Return.
func (c val) boxed() Value {
	if c.isInt() {
		return c.n
	}
	return c.v
}

// format is Format without boxing an int.
func (c val) format() string {
	if c.isInt() {
		return strconv.FormatInt(c.n, 10)
	}
	return Format(c.v)
}

// undefined marks frame slots whose declaration has not executed (yet) in
// the current scope activation. It reproduces the tree-walker's dynamic
// scope maps on flat slot frames: jumping past a declaration (switch
// fallthrough, conditional declaration) leaves the slot undefined, so reads
// fall through to outer candidates or fail with the same "cannot resolve
// variable" error the reference engine raises.
type undefined struct{}

var undef = val{v: undefined{}}

func (c val) defined() bool {
	_, u := c.v.(undefined)
	return !u
}

// frame is one activation record of a compiled method: flat value slots
// indexed at compile time, the return-value register and one recurrence
// watch per loop of the method.
type cframe struct {
	slots   []val
	ret     val
	watches []loopWatch
}

// emptyFrame backs global-initializer expressions, which can only touch
// globals (via the vm) and therefore need no local slots.
var emptyFrame = &cframe{}

// paramSlot records where a parameter lands and how to trace it.
type paramSlot struct {
	slot int
	name string
	line int
}

// compiledMethod is the closure code of one method plus its frame layout.
type compiledMethod struct {
	name   string
	line   int // declaration line, for stack-overflow / arity errors
	params []paramSlot
	nslots int
	entry  *cnode
	frames sync.Pool // *cframe, reset to undef on acquisition
}

func (fn *compiledMethod) getFrame() *cframe {
	fr := fn.frames.Get().(*cframe)
	for i := range fr.slots {
		fr.slots[i] = undef
	}
	fr.ret = val{}
	return fr
}

// globalInit initializes one class field, in declaration order.
type globalInit struct {
	slot int
	init exprFn // nil: use zero
	zero val
}

// Program is a compiled compilation unit. It is immutable after Compile and
// safe for concurrent Run calls: all per-run state lives in a pooled vm.
type Program struct {
	methods     map[string]*compiledMethod
	globalIndex map[string]int
	nglobals    int
	inits       []globalInit
	vms         sync.Pool
}

// vm is the mutable state of one Run: the step/depth budgets, console
// output, global slots, the run's configuration and the loop watch's
// counters.
type vm struct {
	stdin    string
	files    map[string]string
	tracer   Tracer
	done     <-chan struct{}
	budget   int
	maxDepth int
	steps    int
	depth    int
	globals  []val
	out      strings.Builder

	heapWrites int // array-element stores, Scanner calls and Arrays.sort
	watchAt    int // steps from which loop heads are watched; MaxInt: never
	watchLeft  int // snapshots and compares the run may still spend
	skipped    int // steps charged by fastForward without executing them
}

// step charges one fuel unit at the given source line, failing the run on
// budget exhaustion and polling the cancellation channel periodically. It is
// called once per executed node, so the common case — budget left, not on a
// poll boundary — stays small enough to inline into the exec closures.
func (v *vm) step(line int) error {
	v.steps++
	if v.steps > v.budget || v.steps&stepPollMask == 0 {
		return v.stepSlow(line)
	}
	return nil
}

func (v *vm) stepSlow(line int) error {
	if v.steps > v.budget {
		return stepLimitErr(line)
	}
	if v.done != nil {
		select {
		case <-v.done:
			return canceledErr(line)
		default:
		}
	}
	return nil
}

func (p *Program) getVM(cfg Config) *vm {
	v, _ := p.vms.Get().(*vm)
	if v == nil {
		v = &vm{globals: make([]val, p.nglobals)}
	}
	v.stdin = cfg.Stdin
	v.files = cfg.Files
	v.tracer = cfg.Tracer
	v.done = cfg.Done
	v.budget = cfg.maxSteps()
	v.maxDepth = cfg.maxDepth()
	v.steps = 0
	v.depth = 0
	v.out.Reset()
	v.heapWrites = 0
	v.skipped = 0
	v.watchLeft = watchMaxChecks
	v.watchAt = watchArmSteps
	if cfg.Tracer != nil {
		v.watchAt = math.MaxInt
	}
	for i := range v.globals {
		v.globals[i] = undef
	}
	return v
}

func (p *Program) putVM(v *vm) {
	// Drop references to caller-owned state before pooling.
	v.files = nil
	v.tracer = nil
	v.done = nil
	p.vms.Put(v)
}

// Run executes the entry method with the given arguments. It is safe to call
// concurrently on the same Program; every run gets pooled, freshly reset
// frames and vm state. A run that fails still returns its Result, with the
// steps it took and the output it printed but no Return value, next to the
// error. A run whose loop state recurs, whole or but for counters that
// drift by a fixed delta per period and feed only themselves and products
// with a zero, is fast-forwarded to its step limit (see loopWatch): it
// fails with the Steps, output and error of the full run, and
// Result.Skipped counts the steps it did not execute.
func (p *Program) Run(entry string, args []Value, cfg Config) (res *Result, err error) {
	obs.InterpRunsTotal.Inc()
	v := p.getVM(cfg)
	defer func() {
		if err != nil {
			res = &Result{Stdout: v.out.String(), Steps: v.steps, Skipped: v.skipped}
		}
		obs.InterpStepsTotal.Add(int64(v.steps))
		obs.InterpStepsSkippedTotal.Add(int64(v.skipped))
		if errors.Is(err, ErrStepLimit) {
			obs.InterpStepLimitTotal.Inc()
		}
		p.putVM(v)
	}()
	// Class fields initialize in declaration order, as the tree-walker does.
	// Method calls from an initializer expression start one level deep there
	// (the synthetic <init> frame is level zero), so bias the depth counter.
	v.depth = 1
	for i := range p.inits {
		gi := &p.inits[i]
		cv := gi.zero
		if gi.init != nil {
			if cv, err = gi.init(v, emptyFrame); err != nil {
				return nil, err
			}
		}
		v.globals[gi.slot] = cv
	}
	v.depth = 0
	fn, ok := p.methods[entry]
	if !ok {
		return nil, &RuntimeError{Msg: fmt.Sprintf("no method %q", entry)}
	}
	if len(args) != len(fn.params) {
		return nil, v.arityErr(fn, len(args))
	}
	fr := fn.getFrame()
	for i, a := range args {
		fr.slots[fn.params[i].slot] = unbox(a)
	}
	ret, err := v.invoke(fn, fr)
	if err != nil {
		return nil, err
	}
	return &Result{Stdout: v.out.String(), Return: ret.boxed(), Steps: v.steps}, nil
}

// arityErr fails a call with the wrong number of arguments. It is raised
// after the arguments evaluate and after the depth check, the tree-walker's
// order.
func (v *vm) arityErr(fn *compiledMethod, nargs int) error {
	if v.depth > v.maxDepth {
		return &RuntimeError{Msg: "stack overflow", Line: fn.line}
	}
	return errAt(fn.line, "method %s expects %d arguments, got %d", fn.name, len(fn.params), nargs)
}

// invoke runs a compiled method via the dispatch loop in fr, a frame from
// fn.getFrame whose parameter slots hold the arguments, and returns fr to
// the pool.
func (v *vm) invoke(fn *compiledMethod, fr *cframe) (val, error) {
	if v.depth > v.maxDepth {
		fn.frames.Put(fr)
		return val{}, &RuntimeError{Msg: "stack overflow", Line: fn.line}
	}
	if v.tracer != nil {
		for i := range fn.params {
			p := &fn.params[i]
			v.tracer.OnAssign(fn.name, p.line, p.name, fr.slots[p.slot].boxed())
		}
	}
	v.depth++
	n := fn.entry
	var err error
	for n != nil {
		n, err = n.exec(v, fr)
		if err != nil {
			v.depth--
			fn.frames.Put(fr)
			return val{}, err
		}
	}
	v.depth--
	ret := fr.ret
	fn.frames.Put(fr)
	return ret, nil
}

// Cache is a source-hash-keyed LRU of compiled Programs, safe for concurrent
// use. Grading pipelines that see the same source repeatedly (functional
// tests over synthetic spaces, batch re-grades, the repair search) compile
// each distinct source once and share the Program across runs and workers.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used; values are *cacheEnt
	entries   map[[sha256.Size]byte]*list.Element
	hits      int64
	misses    int64
	evictions int64
	compileNS atomic.Int64 // compilation happens outside mu
}

type cacheEnt struct {
	key  [sha256.Size]byte
	prog *Program
}

// DefaultCacheSize bounds a Cache built with NewCache(0). Programs are a few
// hundred closures each; a thousand of them is still small next to one EPDG.
const DefaultCacheSize = 1024

// NewCache returns an LRU Program cache holding up to capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		entries: map[[sha256.Size]byte]*list.Element{},
	}
}

// Lookup returns the cached Program for the source, or nil. A hit lets the
// caller skip parsing entirely; a miss is not counted against the cache (the
// subsequent CompileCached records it).
func (c *Cache) Lookup(src string) *Program {
	key := sha256.Sum256([]byte(src))
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	obs.InterpCompileCacheHits.Inc()
	return el.Value.(*cacheEnt).prog
}

// CompileCached returns the Program for the source, compiling the unit on a
// miss. The boolean reports whether the Program came from the cache.
func (c *Cache) CompileCached(src string, unit *ast.CompilationUnit) (*Program, bool) {
	key := sha256.Sum256([]byte(src))
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		obs.InterpCompileCacheHits.Inc()
		return el.Value.(*cacheEnt).prog, true
	}
	c.mu.Unlock()

	t0 := time.Now()
	prog := Compile(unit)
	c.compileNS.Add(time.Since(t0).Nanoseconds())

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Another worker compiled it first; share theirs.
		c.ll.MoveToFront(el)
		prog = el.Value.(*cacheEnt).prog
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEnt{key: key, prog: prog})
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.entries, back.Value.(*cacheEnt).key)
			c.evictions++
		}
	}
	c.misses++
	c.mu.Unlock()
	obs.InterpCompileCacheMisses.Inc()
	return prog, false
}

// CacheStats is a point-in-time snapshot of cache effectiveness. CompileNS
// is the wall time this cache spent compiling misses — counted by the cache
// itself (not the obs registry), so callers can attribute compile cost even
// when metrics collection is disabled.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int
	CompileNS int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		CompileNS: c.compileNS.Load(),
	}
}

// compileTimer attributes wall time to the compile metric; split out so
// Compile stays readable.
func compileTimer() func() {
	start := time.Now()
	return func() {
		obs.InterpCompileNS.Add(time.Since(start).Nanoseconds())
	}
}
