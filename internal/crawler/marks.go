package crawler

import (
	"encoding/json"
	"fmt"
)

// This file is the checkpoint format of incremental recrawls: per-domain
// since_id high-water marks. simnet.Checkpoint.HighWater and fedicrawl's
// -since/-write-since JSON files must agree on it byte for byte, so both
// compute and marshal marks here.

// Marks computes the per-domain high-water marks of a crawl: domain →
// largest seen toot id, for every domain whose timeline was harvested
// completely. A blocked, offline or partially-failed harvest contributes no
// mark — resuming past history that was never fetched would silently drop
// toots — so those domains are refetched in full next run.
func Marks(crawls []InstanceCrawl) map[string]int64 {
	marks := make(map[string]int64, len(crawls))
	for i := range crawls {
		if c := &crawls[i]; !c.Blocked && !c.Offline && c.Err == nil {
			marks[c.Domain] = c.MaxID
		}
	}
	return marks
}

// EncodeMarks renders marks as the fedicrawl -write-since file format:
// indented JSON (sorted keys, as encoding/json always emits for maps) plus
// a trailing newline. The encoding is byte-stable for a given map.
func EncodeMarks(marks map[string]int64) ([]byte, error) {
	b, err := json.MarshalIndent(marks, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeMarks parses a marks file written by EncodeMarks (or any JSON
// object of domain → id).
func DecodeMarks(data []byte) (map[string]int64, error) {
	marks := map[string]int64{}
	if err := json.Unmarshal(data, &marks); err != nil {
		return nil, fmt.Errorf("crawler: bad marks file: %w", err)
	}
	return marks, nil
}
