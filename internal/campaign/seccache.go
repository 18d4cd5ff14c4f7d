package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"kfi/internal/inject"
	"kfi/internal/kernel"
)

// The per-section outcome cache decomposes a campaign's outcome table the
// way FastFlip decomposes a fault-injection result set: by the program
// section a flip lands in. Code targets belong to the kernel function that
// contains them; every other campaign's targets form one whole-image
// section (their outcomes depend on the entire image, not a code range).
// Each section's completed rows are persisted under a key that fingerprints
// everything those rows are a function of:
//
//   - the campaign identity (platform, campaign, N, seed, burst, golden
//     checksum) and the sense option, because it changes the rows' bytes;
//   - the traced golden run (cycle count, checksum, and the full first-hit
//     trace), standing in for whole-image behavior;
//   - the section's own compiled bytes (a code section's byte range, or the
//     whole code+data image for the catch-all section);
//   - the section's exact target list, trigger cycles included, so a
//     reachability change re-executes even a byte-identical section.
//
// A re-run in which nothing changed hits on every section and reproduces
// the cold run's table and journal byte-for-byte (every row carries
// PredCached in both runs — the marker records cache membership, not a
// hit). A run with one modified section misses only on that section's key
// and re-injects only its targets.
//
// The residual approximation, documented in DESIGN.md §17: the golden trace
// fingerprints fault-free behavior only. A modification that leaves the
// golden trace bit-identical but changes code another section's faulty runs
// can wander into is invisible to the other sections' keys. Inert
// (semantics-preserving) modifications are sound by construction; for
// anything larger, delete the cache directory.

// seccacheMagic names the section file format; bump on incompatible change.
const seccacheMagic = "KFISEC1"

// sectionHeader is the first frame of a section file.
type sectionHeader struct {
	Magic string `json:"magic"`
	Name  string `json:"name"`
	Key   string `json:"key"`
	Rows  int    `json:"rows"`
}

// section is one cache unit: a named group of target indices and the
// content key its persisted rows are filed under.
type section struct {
	name string
	idxs []int
	key  string
}

// sectionSet is the campaign's section decomposition plus the cache
// directory. A nil *sectionSet (caching off) is valid and inert.
type sectionSet struct {
	dir     string
	targets []inject.Target
	secs    []section
	hit     []bool
	onSec   func(name string, hit bool)
}

// openSectionCache decomposes the target list into sections and computes
// their content keys. Returns nil (inert) when caching is off.
func openSectionCache(sys *kernel.System, golden uint32, spec Spec,
	targets []inject.Target, tr *goldenTrace, opts ExecOptions) (*sectionSet, error) {
	if opts.SectionCache == "" {
		return nil, nil
	}
	if tr == nil {
		return nil, fmt.Errorf("campaign: section cache requires a traced golden run")
	}
	byName := map[string][]int{}
	var names []string
	for i, t := range targets {
		name := "_image"
		if t.Campaign == inject.CampCode {
			if name = t.Func; name == "" {
				name = "_code"
			}
		}
		if _, ok := byName[name]; !ok {
			names = append(names, name)
		}
		byName[name] = append(byName[name], i)
	}
	sort.Strings(names)
	base := newSectionHasher(sys, golden, spec, tr, opts)
	ss := &sectionSet{dir: opts.SectionCache, targets: targets,
		secs: make([]section, 0, len(names)), hit: make([]bool, len(names)), onSec: opts.onSection}
	for _, name := range names {
		idxs := byName[name]
		key, err := base.sectionKey(sys, tr, name, idxs, targets)
		if err != nil {
			return nil, err
		}
		ss.secs = append(ss.secs, section{name: name, idxs: idxs, key: key})
	}
	return ss, nil
}

// sectionHasher is the campaign-wide key prefix shared by every section:
// identity, options, and the golden-trace fingerprint.
type sectionHasher struct {
	prefix []byte
}

func newSectionHasher(sys *kernel.System, golden uint32, spec Spec,
	tr *goldenTrace, opts ExecOptions) *sectionHasher {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nplatform %v\ncampaign %d n %d seed %d burst %d golden %08x\n",
		seccacheMagic, sys.Platform, spec.Campaign, spec.N, spec.Seed, spec.Burst, golden)
	// "prune false" keeps the keys of caches filled by earlier builds,
	// which had a pruning option, valid.
	fmt.Fprintf(h, "sense %v prune false\n", opts.Sense)
	fmt.Fprintf(h, "trace cycles %d checksum %08x hits %s\n",
		tr.cycles, tr.checksum, traceFingerprint(tr))
	return &sectionHasher{prefix: h.Sum(nil)}
}

// traceFingerprint hashes the golden run's full first-hit trace in a
// deterministic (PC-sorted) order.
func traceFingerprint(tr *goldenTrace) string {
	pcs := make([]uint32, 0, len(tr.firstHit))
	for pc := range tr.firstHit {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(a, b int) bool { return pcs[a] < pcs[b] })
	h := sha256.New()
	for _, pc := range pcs {
		fmt.Fprintf(h, "%08x %d\n", pc, tr.firstHit[pc])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sectionKey extends the campaign prefix with the section's name, compiled
// bytes, and exact target rows (triggers included).
func (sh *sectionHasher) sectionKey(sys *kernel.System, tr *goldenTrace,
	name string, idxs []int, targets []inject.Target) (string, error) {
	h := sha256.New()
	h.Write(sh.prefix)
	fmt.Fprintf(h, "section %s\n", name)
	if err := writeSectionBytes(h, sys, name); err != nil {
		return "", err
	}
	for _, idx := range idxs {
		t := targets[idx]
		tj, err := json.Marshal(t)
		if err != nil {
			return "", err
		}
		trig, reached := uint64(0), false
		if t.Campaign == inject.CampCode {
			trig, reached = tr.firstHit[t.Addr], true
			if _, ok := tr.firstHit[t.Addr]; !ok {
				reached = false
			}
		}
		fmt.Fprintf(h, "target %d trig %d reached %v %s\n", idx, trig, reached, tj)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeSectionBytes feeds a section's compiled content into the key hash: a
// code section contributes its function's byte range, the whole-image
// section contributes the complete code and data images.
func writeSectionBytes(h hash.Hash, sys *kernel.System, name string) error {
	img := sys.KernelImage
	if name == "_image" {
		fmt.Fprintf(h, "image code %08x data %08x bss %08x+%d\n",
			img.CodeBase, img.DataBase, img.BSSBase, img.BSSSize)
		h.Write(img.Code)
		h.Write(img.Data)
		return nil
	}
	for _, fn := range img.Funcs {
		if fn.Name != name {
			continue
		}
		if fn.Start < img.CodeBase || uint64(fn.End-img.CodeBase) > uint64(len(img.Code)) || fn.End < fn.Start {
			return fmt.Errorf("campaign: section %q has an out-of-image range", name)
		}
		fmt.Fprintf(h, "func %08x-%08x\n", fn.Start, fn.End)
		h.Write(img.Code[fn.Start-img.CodeBase : fn.End-img.CodeBase])
		return nil
	}
	return fmt.Errorf("campaign: section %q is not a kernel function", name)
}

func (ss *sectionSet) path(sec *section) string {
	return filepath.Join(ss.dir, sec.key+".ksec")
}

// restore satisfies every section whose key is present and intact in the
// cache directory: its rows are returned, in section order, to be completed
// (journaled) exactly as executed rows are, and marked in the skip mask.
// Rows already satisfied by a journal resume are left alone.
func (ss *sectionSet) restore(skip []bool) []readyRow {
	if ss == nil {
		return nil
	}
	var out []readyRow
	for si := range ss.secs {
		sec := &ss.secs[si]
		rows, ok := ss.load(sec)
		if ss.onSec != nil {
			ss.onSec(sec.name, ok)
		}
		if !ok {
			continue
		}
		ss.hit[si] = true
		for _, idx := range sec.idxs {
			if skip[idx] {
				continue
			}
			out = append(out, readyRow{idx: idx, res: rows[idx], journal: true})
			skip[idx] = true
		}
	}
	return out
}

// load reads and validates one section file. Any damage — a missing file, a
// torn frame, a row count or index set that does not match the section, a
// target that differs from the campaign's — reads as a miss, never an
// error: the cache is an optimization, and a cold execution is always
// correct.
func (ss *sectionSet) load(sec *section) (map[int]inject.Result, bool) {
	f, err := os.Open(ss.path(sec))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fr := NewFrameReader(f)
	hp, ok := fr.Next()
	if !ok {
		return nil, false
	}
	var sh sectionHeader
	if err := json.Unmarshal(hp, &sh); err != nil ||
		sh.Magic != seccacheMagic || sh.Name != sec.name || sh.Key != sec.key || sh.Rows != len(sec.idxs) {
		return nil, false
	}
	member := make(map[int]bool, len(sec.idxs))
	for _, idx := range sec.idxs {
		member[idx] = true
	}
	rows := make(map[int]inject.Result, len(sec.idxs))
	for {
		payload, ok := fr.Next()
		if !ok {
			break
		}
		idx, res, err := DecodeRecord(payload)
		if err != nil || !member[idx] {
			return nil, false
		}
		if _, dup := rows[idx]; dup {
			return nil, false
		}
		if !reflect.DeepEqual(res.Target, ss.targets[idx]) {
			return nil, false
		}
		rows[idx] = res
	}
	if len(rows) != len(sec.idxs) {
		return nil, false
	}
	return rows, true
}

// store persists every section the cache missed on, now that its rows are
// complete. Sections holding quarantined rows are never cached — quarantine
// reflects harness supervision, not the injected fault, and must be
// re-attempted, not replayed. Files land via create-temp-then-rename so a
// crash mid-store can only leave a stray temp file, never a torn section.
func (ss *sectionSet) store(results []inject.Result) error {
	if ss == nil {
		return nil
	}
	if err := os.MkdirAll(ss.dir, 0o755); err != nil {
		return fmt.Errorf("campaign: section cache: %w", err)
	}
	for si := range ss.secs {
		if ss.hit[si] {
			continue
		}
		sec := &ss.secs[si]
		flaky := false
		for _, idx := range sec.idxs {
			if results[idx].Outcome == inject.OQuarantined {
				flaky = true
				break
			}
		}
		if flaky {
			continue
		}
		if err := ss.writeSection(sec, results); err != nil {
			return err
		}
	}
	return nil
}

func (ss *sectionSet) writeSection(sec *section, results []inject.Result) error {
	hp, err := json.Marshal(sectionHeader{Magic: seccacheMagic, Name: sec.name,
		Key: sec.key, Rows: len(sec.idxs)})
	if err != nil {
		return err
	}
	out := Frame(hp)
	for _, idx := range sec.idxs {
		payload, err := EncodeRecord(idx, results[idx])
		if err != nil {
			return err
		}
		out = append(out, Frame(payload)...)
	}
	tmp, err := os.CreateTemp(ss.dir, "sec-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: section cache: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: section cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: section cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), ss.path(sec)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: section cache: %w", err)
	}
	return nil
}
