package instance

// Read-backs that only the tests use: they materialise what a server holds
// as standalone values, to compare against what it serves.

// PublicTimeline returns up to limit public toots with ID < maxID (0 means
// newest), newest first — exactly the paging contract of Mastodon's
// /api/v1/timelines/public. Private authors' toots are excluded. Toots are
// materialised from the slab store into standalone values.
func (s *Server) PublicTimeline(kind Timeline, maxID int64, limit int) []Toot {
	return s.PublicTimelineSince(kind, maxID, 0, limit)
}

// PublicTimelineSince is PublicTimeline with Mastodon's since_id lower
// bound: only toots with ID > sinceID are returned (0 = no bound). It is
// the server half of incremental recrawls — a delta crawl resuming from a
// high-water mark pages only the content that appeared after it.
func (s *Server) PublicTimelineSince(kind Timeline, maxID, sinceID int64, limit int) []Toot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := s.pageRows(nil, kind, maxID, sinceID, limit, false)
	out := make([]Toot, len(rows))
	for i, ri := range rows {
		out[i] = s.store.get(ri, s.cfg.Domain)
	}
	return out
}

// FollowerCount returns the number of followers of a local account.
func (s *Server) FollowerCount(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if a := s.accounts[name]; a != nil {
		return len(a.followers)
	}
	return 0
}
