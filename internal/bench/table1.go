package bench

// Table1 reproduces the paper's Table 1: the logical-architecture taxonomy
// of popular database engines. It is a static comparison; reproducing it
// means encoding the same classification the paper argues from, with
// HiEngine as the only memory-centric, log-is-database, three-layer
// disaggregated engine on DRAM/NVM.
func Table1(o Options) (*Report, error) {
	r := &Report{
		ID:       "table1",
		Title:    "Logical Architecture Comparison for Popular Database Engines",
		Expected: "HiEngine uniquely combines memory-centric design, log-is-database, and a disaggregated compute+logging+storage architecture on DRAM/NVM",
		Header:   []string{"System", "Design Principle", "Log is Database", "Disaggregated Architecture", "Main Location"},
		Notes: []string{
			"this repository implements the HiEngine row end-to-end: internal/core over internal/srss " +
				"(compute-side logging layer + storage tier), plus the storage-centric (innosim) and " +
				"memory-centric non-disaggregated (memocc) rows as baselines",
		},
	}
	// The one yes/no column is the taxonomy's numeric series (1 = yes).
	yes, no := cell{"Yes", 1}, cell{"No", 0}
	r.row("Aurora", "Storage-centric", yes, "Compute + Shared Storage", "SSD/HDD")
	r.row("Taurus", "Storage-centric", yes, "Compute + Shared Storage", "SSD/HDD")
	r.row("PolarDB", "Storage-centric", no, "Compute + Shared Storage", "SSD/HDD")
	r.row("Socrates", "Storage-centric", yes, "Compute + Logging + Shared Storage", "SSD/HDD")
	r.row("HiEngine", "Memory-centric", yes, "Compute + Logging + Shared Storage", "DRAM/NVM")
	r.row("ERMIA", "Memory-centric", yes, "Not Disaggregated", "DRAM")
	r.row("Hekaton", "Memory-centric", no, "Not Disaggregated", "DRAM/SSD")
	r.row("NAM-DB", "Memory-centric", no, "Compute + Shared Storage (Memory)", "DRAM")
	r.row("FaRM", "Memory-centric", no, "Compute + Shared Storage (Memory)", "DRAM/NVM")
	return r, nil
}
