package innosim

// FlushDirtyPages writes back all dirty pages (checkpoint), charging
// storage-tier writes -- twice for the MySQL variant's doublewrite buffer.
func (db *DB) FlushDirtyPages() int {
	n := db.pool.flushAll()
	if db.cfg.Variant == VariantMySQL {
		// Doublewrite: each flushed page is written twice.
		db.pool.chargeWrites(n)
	}
	return n
}
