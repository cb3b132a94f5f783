package store

import (
	"bytes"
	"testing"
	"time"

	"spotlight/internal/market"
)

var fuzzMarket = market.SpotID{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux}

// fuzzSegment builds a small valid segment image for the seed corpus.
func fuzzSegment() []byte {
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	buf := []byte(walMagic)
	buf = appendProbeFrame(buf, ProbeRecord{
		At: at, Market: fuzzMarket, Kind: ProbeOnDemand, Trigger: TriggerSpike,
		TriggerMarket: fuzzMarket, SourceKind: ProbeSpot,
		SpikeRatio: 1.5, PriceRatio: 1.2, Rejected: true, Code: "ICE", Bid: 0.3, Cost: 0.02,
	})
	buf = appendSpikeFrame(buf, SpikeEvent{At: at.Add(time.Minute), Market: fuzzMarket, Price: 0.9, Ratio: 1.8, Probed: true})
	buf = appendBidSpreadFrame(buf, BidSpreadRecord{At: at.Add(2 * time.Minute), Market: fuzzMarket, Published: 0.5, Intrinsic: 0.31, Attempts: 6})
	buf = appendRevocationFrame(buf, RevocationRecord{At: at.Add(3 * time.Minute), Market: fuzzMarket, Bid: 1.1, Held: time.Hour})
	buf = appendPriceFrame(buf, PricePoint{At: at.Add(4 * time.Minute), Price: 0.27})
	return buf
}

// FuzzWALDecode feeds arbitrary bytes to the WAL segment decoder: it must
// return records plus an error position, never panic, and its reported
// valid prefix must actually be a prefix of the input.
func FuzzWALDecode(f *testing.F) {
	valid := fuzzSegment()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                            // torn tail
	f.Add([]byte(walMagic))                                                // empty segment
	f.Add([]byte{})                                                        // no header
	f.Add([]byte("SPOTWAL1\x00\x00"))                                      // short frame header
	f.Add(append([]byte(nil), valid[:len(walMagic)+walFrameHeader+40]...)) // mid-frame cut
	corrupt := append([]byte(nil), valid...)
	corrupt[len(walMagic)+10] ^= 0xff // checksum mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, validLen, err := decodeSegment(data, fuzzMarket)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("valid prefix %d outside input of %d bytes", validLen, len(data))
		}
		if err == nil {
			// A cleanly decoded segment must re-decode identically from
			// its own valid prefix.
			again, againLen, err2 := decodeSegment(data[:validLen], fuzzMarket)
			if err2 != nil || againLen != validLen || len(again) != len(entries) {
				t.Fatalf("re-decode of valid prefix diverged: %v, %d vs %d entries", err2, len(again), len(entries))
			}
		}
	})
}

// fuzzSnapshotShard builds a small valid v2 snapshot shard image (magic
// header plus one CRC-framed record per family) for the seed corpus.
func fuzzSnapshotShard(f *testing.F) []byte {
	f.Helper()
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	s := New()
	s.AppendProbe(ProbeRecord{
		At: at, Market: fuzzMarket, Kind: ProbeOnDemand, Trigger: TriggerSpike,
		TriggerMarket: fuzzMarket, SourceKind: ProbeSpot,
		SpikeRatio: 1.5, PriceRatio: 1.2, Rejected: true, Code: "ICE", Bid: 0.3, Cost: 0.02,
	})
	s.AppendSpike(SpikeEvent{At: at.Add(time.Minute), Market: fuzzMarket, Price: 0.9, Ratio: 1.8, Probed: true})
	s.AppendBidSpread(BidSpreadRecord{At: at.Add(2 * time.Minute), Market: fuzzMarket, Published: 0.5, Intrinsic: 0.31, Attempts: 6})
	s.AppendRevocation(RevocationRecord{At: at.Add(3 * time.Minute), Market: fuzzMarket, Bid: 1.1, Held: time.Hour})
	s.RecordPrice(fuzzMarket, PricePoint{At: at.Add(4 * time.Minute), Price: 0.27})
	c := s.lookup(fuzzMarket).capture(0)
	var buf bytes.Buffer
	if err := encodeShardSnapshot(&buf, &c); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotV2Decode feeds arbitrary bytes to the binary snapshot shard
// decoder: malformed input must produce an error, never a panic — a
// snapshot is complete or damaged, there is no torn-tail salvage — and a
// cleanly decoded image must re-decode identically, with the returned
// record count matching what the callback saw.
func FuzzSnapshotV2Decode(f *testing.F) {
	valid := fuzzSnapshotShard(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated tail
	f.Add([]byte(snapMagic))    // header only
	f.Add([]byte{})             // no header
	f.Add(fuzzSegment())        // WAL magic where snapshot magic belongs
	corrupt := append([]byte(nil), valid...)
	corrupt[len(snapMagic)+6] ^= 0xff // checksum mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		seen := 0
		n, err := decodeShardSnapshot(data, fuzzMarket, nil, func(e *walEntry) { seen++ })
		if err != nil {
			return
		}
		if n != uint64(seen) {
			t.Fatalf("decode reported %d records, callback saw %d", n, seen)
		}
		again := 0
		n2, err2 := decodeShardSnapshot(data, fuzzMarket, make(map[string]string), func(e *walEntry) { again++ })
		if err2 != nil || n2 != n || again != seen {
			t.Fatalf("re-decode diverged: %v, %d/%d vs %d/%d records", err2, n2, again, n, seen)
		}
	})
}
