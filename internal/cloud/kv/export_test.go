package kv

// Config returns the configuration the store was built from, so that the
// differential tests can build their oracle with the real services' limits.
func (s *MemStore) Config() Config { return s.cfg }
