package fastsketches_test

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"fastsketches"
	"fastsketches/internal/autoscale"
)

func TestRegistryConfigValidation(t *testing.T) {
	bad := []fastsketches.RegistryConfig{
		{Shards: -1},
		{Writers: -1},
		{MaxError: -0.1},
		{BufferSize: -1},
		{ThetaLgK: 1},
		{ThetaLgK: 27},
		{HLLPrecision: 3},
		{HLLPrecision: 30},
		{QuantilesK: 1},
		{CountMinEpsilon: 1.5},
		{CountMinDelta: -0.2},
		{CountMinDelta: 2},
		{WindowInterval: -time.Second},
		{WindowSlots: 3},   // slots without an interval
		{WindowDecay: 0.5}, // decay without an interval
		{WindowInterval: time.Second, WindowDecay: 1.5},     // decay outside [0,1)
		{WindowInterval: time.Second, WindowSlots: 1 << 20}, // slots beyond the ring bound
	}
	for _, cfg := range bad {
		if _, err := fastsketches.NewRegistry(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	if _, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestRegistryGetOrCreateStable(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if openTheta(t, reg, "a").Sketch() != openTheta(t, reg, "a").Sketch() {
		t.Error("same name must return the same sketch")
	}
	if openTheta(t, reg, "a").Sketch() == openTheta(t, reg, "b").Sketch() {
		t.Error("different names must be independent sketches")
	}
	// Same name across families are independent tenants.
	openHLL(t, reg, "a")
	openQuantiles(t, reg, "a")
	openCountMin(t, reg, "a")
	names := reg.Names()
	want := []string{"countmin/a", "hll/a", "quantiles/a", "theta/a", "theta/b"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRegistryConcurrentAccessors(t *testing.T) {
	// Many goroutines racing to create/fetch the same names must agree on
	// the winners and never deadlock.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const goroutines = 16
	sketches := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := reg.OpenTheta("contended", fastsketches.Spec{})
			if err != nil {
				t.Errorf("racing open: %v", err)
				return
			}
			sketches[g] = h.Sketch()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if sketches[g] != sketches[0] {
			t.Fatal("racing accessors returned different sketches for one name")
		}
	}
}

func TestRegistryEndToEnd(t *testing.T) {
	// The facade walkthrough: multiple tenants ingesting concurrently on
	// separate lanes, live merged queries, exact answers after Close.
	const writers, n = 2, 40000
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, Writers: writers, MaxError: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	users := openTheta(t, reg, "users").Sketch()
	latency := openQuantiles(t, reg, "latency").Sketch()
	calls := openCountMin(t, reg, "calls").Sketch()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 40
			for i := 0; i < n/writers; i++ {
				users.Update(w, base+uint64(i))
				latency.Update(w, float64(i%1000))
				calls.Update(w, uint64(i%32))
			}
			// Live merged queries from a writer goroutine are fine too.
			_ = users.Estimate()
			_ = latency.Quantile(0.99)
		}(w)
	}
	wg.Wait()
	reg.Close()
	// users: n distinct keys but 2k = 8192 < n → sampling estimate.
	re := users.Estimate()/float64(n) - 1
	if math.Abs(re) > 0.1 {
		t.Errorf("theta estimate error %.4f", re)
	}
	if got := latency.N(); got != n {
		t.Errorf("quantiles N = %d, want %d", got, n)
	}
	if got := calls.N(); got != n {
		t.Errorf("countmin N = %d, want %d", got, n)
	}
	// Each of the 32 hot keys appeared n/32 times; wide sketch → exact.
	if got := calls.Estimate(7); got != n/32 {
		t.Errorf("countmin key-7 estimate %d, want %d", got, n/32)
	}
}

func TestRegistryConcurrentFirstUseAndQueryRace(t *testing.T) {
	// Race the whole first-use window under -race (CI runs this suite with
	// the race detector): many goroutines simultaneously trigger creation of
	// the same named sketch while others update it on their own lanes and
	// query it through both the pooled path (Estimate) and the caller-owned
	// accumulator path (Handle.QueryInto with one accumulator per goroutine).
	const goroutines, iters = 12, 200
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, Writers: goroutines,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			switch g % 3 {
			case 0: // creator + writer: lane g is owned by this goroutine only
				for i := 0; i < iters; i++ {
					h, _ := reg.OpenTheta("hot", fastsketches.Spec{})
					h.Update(g, uint64(g)<<32|uint64(i))
				}
			case 1: // pooled queriers, plus first-use races on other families
				for i := 0; i < iters; i++ {
					th, _ := reg.OpenTheta("hot", fastsketches.Spec{})
					_ = th.Sketch().Estimate()
					cm, _ := reg.OpenCountMin("hot", fastsketches.Spec{})
					_ = cm.Sketch().N()
					_ = reg.Names()
				}
			case 2: // owned-accumulator queriers
				h, _ := reg.OpenTheta("hot", fastsketches.Spec{})
				acc := h.NewAccumulator()
				for i := 0; i < iters; i++ {
					h.QueryInto(acc)
					_ = acc.Estimate()
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	sk := openTheta(t, reg, "hot").Sketch()
	reg.Close()
	// 4 writer goroutines (g = 0, 3, 6, 9) each ingested `iters` distinct
	// keys; well under k per shard, so the merged estimate is exact.
	if est, want := sk.Estimate(), float64(4*iters); est != want {
		t.Errorf("estimate after racing creation/queries = %v, want exactly %v", est, want)
	}
}

func TestRegistryQueryIntoMatchesPooled(t *testing.T) {
	// Handle.QueryInto must agree with the pooled query methods, and one
	// accumulator must survive reuse across names.
	// Default MaxError keeps every shard eager for this stream size, so the
	// registry stays live while published snapshots are exact and stable
	// between the paired queries below.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 4, CountMinEpsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	thA, thB := openTheta(t, reg, "a"), openTheta(t, reg, "b")
	hl := openHLL(t, reg, "a")
	qu := openQuantiles(t, reg, "a")
	cm := openCountMin(t, reg, "a")
	for i := 0; i < 2000; i++ {
		thA.Update(0, uint64(i))
		thB.Update(0, uint64(i%100))
		hl.Update(0, uint64(i))
		qu.Update(0, float64(i))
		cm.Update(0, uint64(i%32))
	}
	if !thA.Eager() {
		t.Fatal("test premise broken: sketch left the eager phase")
	}

	thAcc := thA.NewAccumulator()
	for _, h := range []*fastsketches.ThetaHandle{thA, thB, thA} { // reuse across names and back
		h.QueryInto(thAcc)
		if got, want := thAcc.Estimate(), h.Sketch().Estimate(); got != want {
			t.Errorf("theta %q: QueryInto %v != pooled %v", h.Name(), got, want)
		}
	}
	hlAcc := hl.NewAccumulator()
	hl.QueryInto(hlAcc)
	if got, want := hlAcc.Estimate(), hl.Sketch().Estimate(); got != want {
		t.Errorf("hll: QueryInto %v != pooled %v", got, want)
	}
	quAcc := qu.NewAccumulator()
	qu.QueryInto(quAcc)
	if got, want := quAcc.Quantile(0.5), qu.Sketch().Quantile(0.5); got != want {
		t.Errorf("quantiles: QueryInto median %v != pooled %v", got, want)
	}
	cmAcc := cm.NewAccumulator()
	cm.QueryInto(cmAcc)
	if got, want := cmAcc.N(), cm.Sketch().N(); got != want {
		t.Errorf("countmin: QueryInto N %d != aggregate N %d", got, want)
	}
	// The merged grid sums all shards, so its one-sided estimate dominates
	// the owning shard's (which itself never underestimates the truth).
	if got, perKey := cmAcc.Estimate(7), cm.Sketch().Estimate(7); got < perKey {
		t.Errorf("countmin: merged estimate %d below per-key estimate %d", got, perKey)
	}
}

func TestRegistryCloseIdempotentAndFinal(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	openTheta(t, reg, "x").Update(0, 1)
	reg.Close()
	reg.Close() // idempotent
	// Both the create path and the existing-name fast path must refuse:
	// a sketch fetched after Close has a stopped propagator and an Update
	// on it would block forever.
	for _, name := range []string{"new-after-close", "x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("opening %q after Close must panic", name)
				}
			}()
			reg.OpenTheta(name, fastsketches.Spec{})
		}()
	}
}

func TestRegistryResizeHandles(t *testing.T) {
	// Each family handle live-reshards the named sketch: the shard count
	// moves, merged answers stay lossless across the drain (the streams
	// here are exact for every family), and resizing one name never
	// touches another.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 2, MaxError: 1, ThetaLgK: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	thA, thB := openTheta(t, reg, "a"), openTheta(t, reg, "b")
	hl := openHLL(t, reg, "a")
	qu := openQuantiles(t, reg, "a")
	cm := openCountMin(t, reg, "a")
	const n = 2000
	for i := 0; i < n; i++ {
		thA.Update(0, uint64(i))
		hl.Update(0, uint64(i))
		qu.Update(0, float64(i))
		cm.Update(0, uint64(i%32))
		thB.Update(0, uint64(i))
	}
	for _, resize := range []func(int) error{
		thA.Resize, hl.Resize, qu.Resize, cm.Resize,
	} {
		if err := resize(6); err != nil {
			t.Fatal(err)
		}
	}
	if got := thA.Shards(); got != 6 {
		t.Errorf("theta/a shards after Resize = %d, want 6", got)
	}
	if got := thB.Shards(); got != 2 {
		t.Errorf("theta/b shards = %d, want untouched 2", got)
	}
	for i := n; i < 2*n; i++ {
		thA.Update(0, uint64(i))
		qu.Update(0, float64(i))
		cm.Update(0, uint64(i%32))
	}
	// Exact-mode Θ across the drain: the estimate counts every distinct
	// key ingested before and after the resize (modulo the live S·r
	// staleness window).
	if err := thA.Resize(3); err != nil { // shrink again; both drains fold into legacy
		t.Fatal(err)
	}
	if est := thA.Sketch().Estimate(); est < float64(2*n-thA.Relaxation()) || est > 2*n {
		t.Errorf("theta/a estimate %v outside [%d - S·r, %d]", est, 2*n, 2*n)
	}
	if got := cm.Sketch().N(); got < uint64(2*n-cm.Relaxation()) || got > 2*n {
		t.Errorf("countmin/a N %d outside staleness window of %d", got, 2*n)
	}
}

// TestRegistryInfoAndInfos covers the serving layer's metadata hooks:
// Info must not create sketches, must report the live geometry, and Infos
// must enumerate every family sorted.
func TestRegistryInfoAndInfos(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if _, ok := reg.Info("theta", "absent"); ok {
		t.Fatal("Info invented a sketch")
	}
	if _, ok := reg.Info("bogusfamily", "absent"); ok {
		t.Fatal("Info accepted an unknown family")
	}
	if got := len(reg.Infos()); got != 0 {
		t.Fatalf("Infos on empty registry returned %d entries", got)
	}

	users := openTheta(t, reg, "users")
	openCountMin(t, reg, "api")
	openHLL(t, reg, "users")
	if err := users.Resize(5); err != nil {
		t.Fatal(err)
	}

	inf, ok := reg.Info("theta", "users")
	if !ok {
		t.Fatal("Info missed a registered sketch")
	}
	if inf.Family != "theta" || inf.Name != "users" || inf.Spec.Shards != 5 || inf.Writers != 3 {
		t.Fatalf("Info = %+v, want theta/users S=5 W=3", inf)
	}
	if inf.Relaxation != users.Relaxation() ||
		inf.ShardRelaxation != users.ShardRelaxation() {
		t.Fatalf("Info staleness bounds %+v disagree with the sketch", inf)
	}
	if !inf.Eager {
		t.Fatal("fresh sketch should still be eager")
	}

	infos := reg.Infos()
	want := []string{"countmin/api", "hll/users", "theta/users"}
	if len(infos) != len(want) {
		t.Fatalf("Infos returned %d entries, want %d", len(infos), len(want))
	}
	for i, w := range want {
		if got := infos[i].Family + "/" + infos[i].Name; got != w {
			t.Fatalf("Infos[%d] = %s, want %s (sorted)", i, got, w)
		}
	}
}

// TestRegistryDrop covers the per-sketch teardown hook: the sketch drains
// and unregisters, attached controllers stop with it, and the name becomes
// free for a fresh sketch.
func TestRegistryDrop(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if reg.Drop("theta", "absent") {
		t.Fatal("Drop invented a sketch")
	}

	sk := openCountMin(t, reg, "api").Sketch()
	for i := 0; i < 1000; i++ {
		sk.Update(0, uint64(i%10))
	}
	if err := reg.Apply("", "api", fastsketches.Spec{Autoscale: &autoscale.Policy{HighWater: 1e6, SampleEvery: time.Millisecond}}); err != nil {
		t.Fatal(err)
	}

	if !reg.Drop("countmin", "api") {
		t.Fatal("Drop missed a registered sketch")
	}
	if _, ok := reg.Info("countmin", "api"); ok {
		t.Fatal("dropped sketch still enumerable")
	}
	// The retained handle stays queryable and, being closed (drained), is
	// exact: every pre-drop update is visible.
	if got := sk.N(); got != 1000 {
		t.Fatalf("drained dropped sketch N = %d, want 1000", got)
	}
	// The name is free: the next accessor gets a fresh, empty sketch.
	if got := openCountMin(t, reg, "api").Sketch().N(); got != 0 {
		t.Fatalf("recreated sketch N = %d, want 0", got)
	}
	// Close (deferred) must not double-stop the dropped sketch's
	// controller; reaching the end of the test green is the assertion.
}

// TestRegistryConfigAccessor pins that Config returns the normalised
// configuration (defaults applied), which serving layers rely on to
// dimension per-connection state.
func TestRegistryConfigAccessor(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	cfg := reg.Config()
	if cfg.Writers != 2 || cfg.Shards == 0 || cfg.ThetaLgK == 0 {
		t.Fatalf("Config not normalised: %+v", cfg)
	}
}

// TestRegistryStopAutoscale pins the attach-replace primitive behind
// Spec.Autoscale and Spec.AutoscaleOff: switching autoscale off by name
// detaches exactly the named sketches' controllers, and a repeated
// attach cycle (the remote admin path) never accumulates loops.
func TestRegistryStopAutoscale(t *testing.T) {
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 2, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	openTheta(t, reg, "a")
	openCountMin(t, reg, "a")
	openTheta(t, reg, "b")
	on := fastsketches.Spec{Autoscale: &autoscale.Policy{HighWater: 1e9, SampleEvery: time.Millisecond}}
	off := fastsketches.Spec{AutoscaleOff: true}
	controlled := func(fam, name string) bool {
		_, ok := reg.AutoscaleStats(fam, name)
		return ok
	}
	if err := errors.Join(reg.Apply("", "a", on), reg.Apply("", "b", on)); err != nil {
		t.Fatal(err)
	}

	if err := reg.Apply("", "a", off); err != nil {
		t.Fatal(err)
	}
	if controlled("theta", "a") || controlled("countmin", "a") {
		t.Fatal("Spec.AutoscaleOff left a controller under a")
	}
	if err := reg.Apply("", "a", off); err != nil {
		t.Fatalf("switching an absent controller off: %v, want a no-op", err)
	}
	// b's controller is untouched; replace cycles keep exactly one, which
	// Close then stops (a stacked one would leak past it).
	for i := 0; i < 3; i++ {
		if err := reg.Apply("theta", "b", on); err != nil {
			t.Fatal(err)
		}
	}
	// An invalid policy must leave the previous controller attached.
	if err := reg.Apply("theta", "b", fastsketches.Spec{Autoscale: &autoscale.Policy{}}); err == nil {
		t.Fatal("Apply accepted an invalid policy")
	}
	if !controlled("theta", "b") {
		t.Fatal("a rejected policy detached b's controller")
	}
	if err := reg.Apply("", "absent", off); !errors.Is(err, fastsketches.ErrConfig) {
		t.Fatalf("Apply to an absent name: %v, want ErrConfig", err)
	}
}
