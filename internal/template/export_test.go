package template

// All returns the store's templates in insertion order, the order BestMatch
// scans them (and so breaks exact ties by), for the reference test.
func (s *Store) All() []*Template { return s.all }
