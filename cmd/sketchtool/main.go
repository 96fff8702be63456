// sketchtool is a command-line interface to the sketch library, in the
// spirit of DataSketches' command-line tools: it builds sketches from
// streams on stdin, saves Θ sketches to files, and combines saved sketches
// with set operations.
//
// A sketch file is a portable snapshot record (internal/snapshot), the same
// bytes a daemon's OpSnapshot returns: family Θ, a zero Spec and a Θ union
// body. So client.Restore loads a file into a served sketch, and a
// client.Snapshot of a served Θ sketch is a valid merge, inter or anotb
// input.
//
//	sketchtool count   [-lgk 12] [-writers 4]          distinct count of stdin lines
//	sketchtool hll     [-p 12]                         distinct count via HLL
//	sketchtool quants  [-k 128] [-q 0.5,0.95,0.99]     quantiles of numeric stdin
//	sketchtool create  [-lgk 12] -o FILE               build Θ sketch, save to FILE
//	sketchtool merge   FILE...                         union of saved sketches
//	sketchtool inter   FILE1 FILE2                     intersection estimate
//	sketchtool anotb   FILE1 FILE2                     difference estimate A\B
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"fastsketches"
	"fastsketches/internal/snapshot"
	"fastsketches/internal/theta"
	"fastsketches/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "count":
		err = runCount(args)
	case "hll":
		err = runHLL(args)
	case "quants":
		err = runQuants(args)
	case "create":
		err = runCreate(args)
	case "merge":
		err = runMerge(args)
	case "inter", "anotb":
		err = runSetOp(cmd, args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: sketchtool COMMAND [flags] [files]
commands: count, hll, quants, create, merge, inter, anotb
`)
}

// readLines calls each on every stdin line. A line over 1 MiB, or a read
// error, stops the scan and is returned: an answer over part of the input
// would look like an answer over all of it.
func readLines(each func(string)) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		each(sc.Text())
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	return nil
}

func runCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	lgk := fs.Int("lgk", 12, "log2 of nominal sample count")
	writers := fs.Int("writers", 4, "ingestion lanes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One shard: the registry serves one concurrent sketch per name.
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{
		Shards: 1, ThetaLgK: *lgk, Writers: *writers, MaxError: 0.04,
	})
	if err != nil {
		return err
	}
	h, _ := reg.OpenTheta("stdin", fastsketches.Spec{}) // a zero Spec is never rejected
	sk := h.Sketch()
	in := make(chan string, 1024) // lets the scanner run ahead of the writers
	var wg sync.WaitGroup
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := range in {
				sk.UpdateString(w, s)
			}
		}(w)
	}
	err = readLines(func(s string) { in <- s })
	close(in)
	wg.Wait()
	reg.Close() // drains every buffer: the estimate covers all of stdin
	if err != nil {
		return err
	}
	lo, hi := sk.ConfidenceBounds(2)
	fmt.Printf("estimate\t%.0f\nbounds_2sigma\t%.0f\t%.0f\n", sk.Estimate(), lo, hi)
	return nil
}

func runHLL(args []string) error {
	fs := flag.NewFlagSet("hll", flag.ExitOnError)
	p := fs.Int("p", 12, "precision (2^p registers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, HLLPrecision: *p})
	if err != nil {
		return err
	}
	h, _ := reg.OpenHLL("stdin", fastsketches.Spec{})
	err = readLines(func(s string) { h.Sketch().UpdateString(0, s) })
	reg.Close()
	if err != nil {
		return err
	}
	fmt.Printf("estimate\t%.0f\n", h.Sketch().Estimate())
	return nil
}

func runQuants(args []string) error {
	fs := flag.NewFlagSet("quants", flag.ExitOnError)
	k := fs.Int("k", 128, "summary parameter")
	qstr := fs.String("q", "0.5,0.95,0.99", "comma-separated quantile fractions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var phis []float64
	for _, part := range strings.Split(*qstr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad quantile %q: %w", part, err)
		}
		phis = append(phis, v)
	}
	reg, err := fastsketches.NewRegistry(fastsketches.RegistryConfig{Shards: 1, QuantilesK: *k})
	if err != nil {
		return err
	}
	h, _ := reg.OpenQuantiles("stdin", fastsketches.Spec{})
	var skipped int
	err = readLines(func(s string) {
		if v, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
			h.Update(0, v)
		} else {
			skipped++
		}
	})
	reg.Close()
	if err != nil {
		return err
	}
	snap := h.Sketch().Summary()
	fmt.Printf("n\t%d\nmin\t%g\nmax\t%g\n", snap.N(), snap.Min(), snap.Max())
	for _, phi := range phis {
		fmt.Printf("q%g\t%g\n", phi, snap.Quantile(phi))
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "skipped %d non-numeric lines\n", skipped)
	}
	return nil
}

func runCreate(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	lgk := fs.Int("lgk", 12, "log2 of nominal sample count")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("create: -o FILE is required")
	}
	if *lgk < 2 || *lgk > 26 {
		return fmt.Errorf("create: -lgk %d outside [2,26]", *lgk)
	}
	sk := fastsketches.NewThetaSketch(*lgk, 0)
	if err := readLines(func(s string) {
		sk.UpdateHash(theta.HashString(s, fastsketches.DefaultSeed))
	}); err != nil {
		return err
	}
	u := fastsketches.ThetaUnion(*lgk, 0)
	u.Add(sk)
	rec := snapshot.Record{Family: wire.FamilyTheta, Name: []byte("stdin")}
	data, m := snapshot.BeginPortable(nil, &rec)
	data = snapshot.EndRecord(u.ExportTo(data), m)
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("estimate\t%.0f\nwrote\t%s\t%d bytes\n", sk.Estimate(), *out, len(data))
	return nil
}

func loadSketch(path string) (*theta.QuickSelect, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, err := snapshot.ParsePortable(data)
	if err != nil {
		return nil, err
	}
	if rec.Family != wire.FamilyTheta {
		return nil, fmt.Errorf("a %s sketch, not theta", rec.Family)
	}
	// The union is sized from the body's lgK byte, so check it before
	// NewUnion can panic on it; ImportFrom validates the rest.
	if len(rec.Blob) == 0 || rec.Blob[0] < 2 || rec.Blob[0] > 26 {
		return nil, fmt.Errorf("%w: lgK outside [2,26]", theta.ErrCorrupt)
	}
	u := fastsketches.ThetaUnion(int(rec.Blob[0]), 0)
	if err := u.ImportFrom(rec.Blob); err != nil {
		return nil, err
	}
	return u.Result(), nil
}

// runMerge unions the saved sketches at the largest k among them, so no
// input is merged below the precision it was built with.
func runMerge(paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("merge: need at least two sketch files")
	}
	sks := make([]*theta.QuickSelect, len(paths))
	lgK := 0
	for i, p := range paths {
		sk, err := loadSketch(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		sks[i], lgK = sk, max(lgK, sk.LgK())
	}
	u := fastsketches.ThetaUnion(lgK, 0)
	for _, sk := range sks {
		u.Add(sk)
	}
	fmt.Printf("union_estimate\t%.0f\n", u.Estimate())
	return nil
}

func runSetOp(op string, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("%s: need exactly two sketch files", op)
	}
	a, err := loadSketch(paths[0])
	if err != nil {
		return fmt.Errorf("%s: %w", paths[0], err)
	}
	b, err := loadSketch(paths[1])
	if err != nil {
		return fmt.Errorf("%s: %w", paths[1], err)
	}
	switch op {
	case "inter":
		fmt.Printf("intersection_estimate\t%.0f\n", fastsketches.ThetaIntersect(a, b).Estimate())
	case "anotb":
		fmt.Printf("difference_estimate\t%.0f\n", fastsketches.ThetaAnotB(a, b).Estimate())
	}
	return nil
}
