package interval

// CheckInvariants exposes the sorted-disjoint validator to tests.
func (x *Index[V]) CheckInvariants() error { return x.checkInvariants() }
