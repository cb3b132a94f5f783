package store

import (
	"encoding/binary"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"spotlight/internal/market"
)

// Parallel recovery. The data directory is naturally partitioned by
// market — one snapshot shard file and one WAL segment directory per
// market — and the store's in-memory state is partitioned the same way,
// so recovery decodes and rebuilds every market concurrently: one
// replay task per market, a worker pool of up to GOMAXPROCS goroutines,
// and no locks on the hot path (the store is not published until Open
// returns, and exactly one worker ever touches a given shard).
//
// The only cross-shard state — the rollup hierarchy's scope aggregates,
// float sums included, and the global generation counter — is NOT
// touched by the workers. Each task accumulates one rollupDelta (the
// same additive delta the live append path folds per batch) plus its
// shard's torn-tail surgery results, and a sequential finalize pass
// walks the tasks in market-ID order, adopting each recovered shard
// into the store and publishing its delta. Every float therefore folds
// in the same order on every recovery of the same directory, keeping
// recovered stores bit-identical run to run — the workers only decide
// *when* a shard's records are decoded, never the order anything is
// summed.

// replayTask is one market's unit of recovery work: its snapshot shard
// file plus its WAL segments.
type replayTask struct {
	id  market.SpotID
	key string // id.String(), the finalize sort key

	// sh is the shard the task rebuilds; finalize adopts it into the
	// store.
	sh *shard

	// snapPath/snapRecords name the market's snapshot shard file and
	// the record count its manifest pins; empty when the snapshot does
	// not cover this market.
	snapPath    string
	snapRecords uint64

	dirPath string // the market's WAL segment directory
	segs    []segPos

	// Worker results.
	delta rollupDelta
	last  segPos
	maxAt time.Time
	err   error
}

// buildReplayTasks enumerates the markets recovery must rebuild: the
// union of the snapshot manifest's shards and the WAL's segment
// directories. Segment names are parsed here (serially — it is cheap
// directory metadata) so maxEpoch accounts for every segment, including
// ones the snapshot covers and ones a worker later removes.
func buildReplayTasks(walRoot string, info snapInfo) (tasks []*replayTask, maxEpoch uint64, err error) {
	byID := make(map[market.SpotID]*replayTask)
	task := func(id market.SpotID) *replayTask {
		t := byID[id]
		if t == nil {
			t = &replayTask{id: id, key: id.String(), sh: newShard(id)}
			byID[id] = t
		}
		return t
	}

	for _, msh := range info.manifest.Shards {
		id, perr := market.ParseSpotID(msh.Market)
		if perr != nil {
			return nil, 0, fmt.Errorf("store: snapshot manifest market %q: %w", msh.Market, perr)
		}
		t := task(id)
		t.snapPath = filepath.Join(info.dirPath, msh.File)
		t.snapRecords = msh.Records
	}

	ents, err := os.ReadDir(walRoot)
	if err != nil {
		return nil, 0, fmt.Errorf("store: list %s: %w", walRoot, err)
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		idStr, uerr := url.PathUnescape(ent.Name())
		if uerr != nil {
			return nil, 0, fmt.Errorf("store: WAL dir %q: %w", ent.Name(), uerr)
		}
		id, perr := market.ParseSpotID(idStr)
		if perr != nil {
			return nil, 0, fmt.Errorf("store: WAL dir %q: %w", ent.Name(), perr)
		}
		t := task(id)
		t.dirPath = filepath.Join(walRoot, ent.Name())
		segEnts, serr := os.ReadDir(t.dirPath)
		if serr != nil {
			return nil, 0, fmt.Errorf("store: list %s: %w", t.dirPath, serr)
		}
		for _, se := range segEnts {
			epoch, idx, ok := parseSegmentName(se.Name())
			if !ok {
				continue
			}
			if epoch > maxEpoch {
				maxEpoch = epoch
			}
			if epoch < info.seq {
				continue // covered by the snapshot; compaction will remove it
			}
			t.segs = append(t.segs, segPos{epoch: epoch, idx: idx})
		}
		sort.Slice(t.segs, func(i, j int) bool {
			if t.segs[i].epoch != t.segs[j].epoch {
				return t.segs[i].epoch < t.segs[j].epoch
			}
			return t.segs[i].idx < t.segs[j].idx
		})
	}

	tasks = make([]*replayTask, 0, len(byID))
	for _, t := range byID {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].key < tasks[j].key })
	return tasks, maxEpoch, nil
}

// replayParallel rebuilds the store from the snapshot and the WAL:
// fan out one task per market, then finalize sequentially in market-ID
// order. Returns each shard's last segment position (for attachPersister)
// and the newest recovered record timestamp.
func replayParallel(walRoot string, info snapInfo, s *Store) (map[market.SpotID]segPos, uint64, time.Time, error) {
	tasks, maxEpoch, err := buildReplayTasks(walRoot, info)
	if err != nil {
		return nil, 0, time.Time{}, err
	}

	// Replay is a bounded bulk load: the heap grows monotonically toward
	// the store's steady-state size, and every column is reserved to its
	// exact final length up front. Letting the collector run concurrent
	// mark cycles (and keep write barriers armed) while that growth is in
	// flight only re-scans data that is about to grow again, so park it
	// for the duration and let the deferred restore trigger one cycle
	// over the settled heap.
	gcWas := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcWas)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan *replayTask)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One intern table per worker: shared decoded strings
				// without shared writes.
				intern := make(map[string]string)
				for t := range next {
					t.run(intern)
				}
			}()
		}
		for _, t := range tasks {
			next <- t
		}
		close(next)
		wg.Wait()
	} else {
		intern := make(map[string]string)
		for _, t := range tasks {
			t.run(intern)
		}
	}

	// Finalize in market-ID order (tasks are already sorted): adopt the
	// worker-built shards and fold each task's delta into the rollup
	// hierarchy — the deterministic sum order every recovery repeats.
	positions := make(map[market.SpotID]segPos)
	var maxAt time.Time
	for _, t := range tasks {
		if t.err != nil {
			return nil, 0, time.Time{}, t.err
		}
		if t.sh.gen.Load() == 0 {
			// No records recovered for this market (e.g. only header-only
			// segments, since removed): shards exist iff they hold records,
			// so nothing to adopt and no position to remember.
			continue
		}
		s.adoptShard(t.sh)
		t.sh.publish(&t.delta)
		if t.last != (segPos{}) {
			positions[t.id] = t.last
		}
		if t.maxAt.After(maxAt) {
			maxAt = t.maxAt
		}
	}
	return positions, maxEpoch, maxAt, nil
}

// frameCounts counts a byte stream's frames per record type — a cheap
// pre-pass (length-prefix hops, no CRC, no field decode) so replay can
// size every column exactly before the real decode. Torn tails stop the
// count early and corrupt prefixes may overcount; both only affect
// reserved capacity, never contents.
type frameCounts [walPrice + 1]int

func countFrames(c *frameCounts, data []byte, magicLen int) {
	off := magicLen
	for off+walFrameHeader < len(data) {
		length := binary.LittleEndian.Uint32(data[off:])
		if length == 0 || length > maxWALPayload {
			return
		}
		end := off + walFrameHeader + int(length)
		if end > len(data) {
			return
		}
		if typ := data[off+walFrameHeader]; int(typ) < len(c) {
			c[typ]++
		}
		off = end
	}
}

// reserveFor grows the shard's columns for the counted records in one
// exact allocation per column.
func (sh *shard) reserveFor(c frameCounts) {
	if n := c[walProbe]; n > 0 {
		sh.probes.reserve(n)
	}
	if n := c[walSpike]; n > 0 {
		sh.spikes.reserve(n)
	}
	if n := c[walBidSpread]; n > 0 {
		sh.bidSpreads.reserve(n)
	}
	if n := c[walRevocation]; n > 0 {
		sh.revocations.reserve(n)
	}
	if n := c[walPrice]; n > 0 {
		sh.prices.reserve(n)
	}
}

// run decodes one market's snapshot shard file and WAL segments into its
// shard. No locks: the shard is exclusively this worker's until finalize.
func (t *replayTask) run(intern map[string]string) {
	// Read everything first and pre-count frames, so the columns get
	// exactly one allocation each before the decode loop starts.
	var snapData []byte
	segData := make([][]byte, len(t.segs))
	var counts frameCounts
	if t.snapPath != "" {
		data, err := os.ReadFile(t.snapPath)
		if err != nil {
			t.err = fmt.Errorf("store: read %s: %w", t.snapPath, err)
			return
		}
		snapData = data
		countFrames(&counts, data, len(snapMagic))
	}
	for i, seg := range t.segs {
		path := filepath.Join(t.dirPath, segmentName(seg.epoch, seg.idx))
		data, err := os.ReadFile(path)
		if err != nil {
			t.err = fmt.Errorf("store: read %s: %w", path, err)
			return
		}
		segData[i] = data
		countFrames(&counts, data, len(walMagic))
	}
	t.sh.reserveFor(counts)

	if snapData != nil {
		n, derr := decodeShardSnapshot(snapData, t.id, intern, t.applyEntry)
		if derr == nil && n != t.snapRecords {
			derr = fmt.Errorf("store: %d records, manifest claims %d", n, t.snapRecords)
		}
		if derr != nil {
			// Snapshots are rename-published, so damage is external — fail
			// Open loudly instead of silently serving a partial recovery.
			t.err = fmt.Errorf("store: snapshot shard %s is damaged (remove the snapshot directory to recover from an older snapshot + WAL, accepting the loss of the records only it covered): %w", t.snapPath, derr)
			return
		}
	}

	for i, seg := range t.segs {
		path := filepath.Join(t.dirPath, segmentName(seg.epoch, seg.idx))
		segRecords := 0
		validLen, derr := decodeSegmentStream(segData[i], t.id, intern, func(e *walEntry) {
			segRecords++
			t.applyEntry(e)
		})
		if derr == nil && segRecords == 0 {
			// A header-only segment (a crash between the magic write and
			// the first frame write) holds no records. Remove it rather
			// than track it: if the market ends up with no records at
			// all, no shard exists to remember the position, and a later
			// append would otherwise reuse the name and append a second
			// magic into the existing file — which the next recovery
			// would read as corruption and discard along with every
			// frame after it.
			if err := os.Remove(path); err != nil {
				t.err = fmt.Errorf("store: drop empty %s: %w", path, err)
				return
			}
			continue
		}
		t.last = seg
		if derr == nil {
			continue
		}
		// Torn or damaged tail: cut the segment back to its valid prefix
		// (or drop it entirely when even the header is gone) and discard
		// any later segments, preserving the exact-prefix invariant. The
		// valid-prefix records are already applied.
		if validLen <= len(walMagic) {
			if err := os.Remove(path); err != nil {
				t.err = fmt.Errorf("store: drop damaged %s: %w", path, err)
				return
			}
		} else if err := os.Truncate(path, int64(validLen)); err != nil {
			t.err = fmt.Errorf("store: trim damaged %s: %w", path, err)
			return
		}
		for _, later := range t.segs[i+1:] {
			lp := filepath.Join(t.dirPath, segmentName(later.epoch, later.idx))
			if err := os.Remove(lp); err != nil {
				t.err = fmt.Errorf("store: drop unreachable %s: %w", lp, err)
				return
			}
		}
		break
	}
}

// applyEntry replays one decoded record through the shard's ordinary
// locked append helpers — the exact code path a live append takes, so
// every ordered flag, derived outage, and crossing index rebuilds
// identically — accumulating the rollup fold into the task's delta for
// finalize.
func (t *replayTask) applyEntry(e *walEntry) {
	switch e.typ {
	case walProbe:
		t.sh.appendProbeLocked(&e.probe, &t.delta)
	case walSpike:
		t.sh.appendSpikeLocked(&e.spike, &t.delta)
	case walBidSpread:
		t.sh.appendBidSpreadLocked(&e.bidSpread, &t.delta)
	case walRevocation:
		t.sh.appendRevocationLocked(&e.revocation, &t.delta)
	case walPrice:
		t.sh.appendPriceLocked(&e.price, &t.delta)
	}
	if at := e.at(); at.After(t.maxAt) {
		t.maxAt = at
	}
}
