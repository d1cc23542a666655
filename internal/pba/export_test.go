package pba

// SearchPushes runs one endpoint search and returns the number of states
// it pushed onto the best-first heap.
func (a *Analyzer) SearchPushes(captureIdx, k int, stopAtSlack *float64) int {
	sc := getScratch()
	defer putScratch(sc)
	a.kWorst(sc, captureIdx, k, stopAtSlack)
	return len(sc.states)
}
