package datagen

import (
	"fmt"
	"math/rand"

	"graphgen/internal/relstore"
)

// This file generates relational databases with the schemas of Figure 15,
// statistically shaped like the paper's real datasets but scaled to
// CI-class hardware. The phenomena the evaluation measures — space
// explosion of large-output joins, condensed vs expanded sizes — depend on
// the membership-size distribution of the join attributes, which these
// generators control directly.

// DBLPLike generates Author(id, name) and AuthorPub(aid, pid): nPubs
// publications whose author counts follow the paper's DBLP shape (average
// ~2.9 authors per publication, long-tailed), with author participation
// skewed by preferential attachment.
func DBLPLike(seed int64, nAuthors, nPubs int) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	author, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ap, _ := db.Create("AuthorPub",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int})
	for a := 1; a <= nAuthors; a++ {
		author.Insert(relstore.IntVal(int64(a)), relstore.StrVal(fmt.Sprintf("author-%d", a)))
	}
	addMembership(rng, ap, nAuthors, nPubs, 2.9, 1.6, 1_000_000)
	return db
}

// DBLPTemporal generates Author(id, name) and AuthorPubYear(aid, pid,
// year): like DBLPLike but with a publication year in [fromYear, toYear],
// enabling the per-period co-author graphs the paper's introduction
// motivates (temporal graph analytics via constant selections in the DSL).
func DBLPTemporal(seed int64, nAuthors, nPubs, fromYear, toYear int) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	author, _ := db.Create("Author",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	apy, _ := db.Create("AuthorPubYear",
		relstore.Column{Name: "aid", Type: relstore.Int},
		relstore.Column{Name: "pid", Type: relstore.Int},
		relstore.Column{Name: "year", Type: relstore.Int})
	for a := 1; a <= nAuthors; a++ {
		author.Insert(relstore.IntVal(int64(a)), relstore.StrVal(fmt.Sprintf("author-%d", a)))
	}
	degree, degreeTotal := make([]int, nAuthors), nAuthors
	years := toYear - fromYear + 1
	for pid := 1; pid <= nPubs; pid++ {
		year := int64(fromYear + rng.Intn(years))
		size := int(rng.NormFloat64()*1.6 + 2.9)
		if size < 1 {
			size = 1
		}
		if size > nAuthors {
			size = nAuthors
		}
		seen := make(map[int]struct{}, size)
		for len(seen) < size {
			var m int
			if rng.Float64() < 0.3 {
				m = pickWeighted(rng, degree, degreeTotal)
			} else {
				m = rng.Intn(nAuthors)
			}
			if _, dup := seen[m]; dup {
				continue
			}
			seen[m] = struct{}{}
			degree[m]++
			degreeTotal++
			apy.Insert(relstore.IntVal(int64(m+1)), relstore.IntVal(int64(1_000_000+pid)), relstore.IntVal(year))
		}
	}
	return db
}

// IMDBLike generates name(person_id, name) and cast_info(person_id,
// movie_id): movies carry large casts (average ~10, as in the paper's
// co-actor dataset where virtual nodes average 10 members).
func IMDBLike(seed int64, nActors, nMovies int) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	name, _ := db.Create("name",
		relstore.Column{Name: "person_id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	ci, _ := db.Create("cast_info",
		relstore.Column{Name: "person_id", Type: relstore.Int},
		relstore.Column{Name: "movie_id", Type: relstore.Int})
	for a := 1; a <= nActors; a++ {
		name.Insert(relstore.IntVal(int64(a)), relstore.StrVal(fmt.Sprintf("actor-%d", a)))
	}
	addMembership(rng, ci, nActors, nMovies, 10, 4, 2_000_000)
	return db
}

// TPCHLike generates Customer(custkey, name), Orders(orderkey, custkey),
// and LineItem(orderkey, partkey). nParts is deliberately small relative to
// the line-item count so that the same-part self-join explodes, as in the
// paper's TPCH experiment (765K rows hiding a 100M-edge graph).
func TPCHLike(seed int64, nCustomers, nOrders, nParts, itemsPerOrder int) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	cust, _ := db.Create("Customer",
		relstore.Column{Name: "custkey", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	orders, _ := db.Create("Orders",
		relstore.Column{Name: "orderkey", Type: relstore.Int},
		relstore.Column{Name: "custkey", Type: relstore.Int})
	li, _ := db.Create("LineItem",
		relstore.Column{Name: "orderkey", Type: relstore.Int},
		relstore.Column{Name: "partkey", Type: relstore.Int})
	for c := 1; c <= nCustomers; c++ {
		cust.Insert(relstore.IntVal(int64(c)), relstore.StrVal(fmt.Sprintf("customer-%d", c)))
	}
	for o := 1; o <= nOrders; o++ {
		orders.Insert(relstore.IntVal(int64(o)), relstore.IntVal(int64(rng.Intn(nCustomers)+1)))
		k := 1 + rng.Intn(itemsPerOrder*2)
		for i := 0; i < k; i++ {
			li.Insert(relstore.IntVal(int64(o)), relstore.IntVal(int64(rng.Intn(nParts)+1)))
		}
	}
	return db
}

// UnivLike generates the db-book.com university shape: Student(id, name),
// Instructor(id, name), TookCourse(sid, cid), TaughtCourse(iid, cid).
// Instructor IDs are offset past student IDs to keep the node space unique.
func UnivLike(seed int64, nStudents, nInstructors, nCourses, coursesPerStudent int) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB()
	student, _ := db.Create("Student",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	instructor, _ := db.Create("Instructor",
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.String})
	took, _ := db.Create("TookCourse",
		relstore.Column{Name: "sid", Type: relstore.Int},
		relstore.Column{Name: "cid", Type: relstore.Int})
	taught, _ := db.Create("TaughtCourse",
		relstore.Column{Name: "iid", Type: relstore.Int},
		relstore.Column{Name: "cid", Type: relstore.Int})
	for s := 1; s <= nStudents; s++ {
		student.Insert(relstore.IntVal(int64(s)), relstore.StrVal(fmt.Sprintf("student-%d", s)))
	}
	instOffset := int64(nStudents)
	for i := 1; i <= nInstructors; i++ {
		instructor.Insert(relstore.IntVal(instOffset+int64(i)), relstore.StrVal(fmt.Sprintf("instructor-%d", i)))
	}
	for s := 1; s <= nStudents; s++ {
		seen := make(map[int]struct{})
		for len(seen) < coursesPerStudent {
			c := rng.Intn(nCourses) + 1
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			took.Insert(relstore.IntVal(int64(s)), relstore.IntVal(int64(c)))
		}
	}
	for c := 1; c <= nCourses; c++ {
		i := rng.Intn(nInstructors) + 1
		taught.Insert(relstore.IntVal(instOffset+int64(i)), relstore.IntVal(int64(c)))
	}
	return db
}

// addMembership fills a (member, group) table: group sizes are drawn from a
// normal(mean, sd) distribution clipped at 1, and members are selected with
// mild preferential skew. Group IDs start at idBase to keep them disjoint
// from member IDs.
func addMembership(rng *rand.Rand, t *relstore.Table, nMembers, nGroups int, mean, sd float64, idBase int64) {
	degree, degreeTotal := make([]int, nMembers), nMembers
	for gID := 1; gID <= nGroups; gID++ {
		size := int(rng.NormFloat64()*sd + mean)
		if size < 1 {
			size = 1
		}
		if size > nMembers {
			size = nMembers
		}
		seen := make(map[int]struct{}, size)
		for len(seen) < size {
			var m int
			if rng.Float64() < 0.3 {
				m = pickWeighted(rng, degree, degreeTotal)
			} else {
				m = rng.Intn(nMembers)
			}
			if _, dup := seen[m]; dup {
				m = rng.Intn(nMembers)
				if _, dup := seen[m]; dup {
					continue
				}
			}
			seen[m] = struct{}{}
			degree[m]++
			degreeTotal++
			t.Insert(relstore.IntVal(int64(m+1)), relstore.IntVal(idBase+int64(gID)))
		}
	}
}

// Queries for the generated schemas (Figure 16).
const (
	// QueryCoauthors is [Q1]: the DBLP co-authors graph.
	QueryCoauthors = `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
`
	// QueryCoactors is the IMDB co-actors graph.
	QueryCoactors = `
Nodes(ID, Name) :- name(ID, Name).
Edges(ID1, ID2) :- cast_info(ID1, movie_id), cast_info(ID2, movie_id).
`
	// QuerySamePart is [Q2]: TPCH customers who bought the same part.
	QuerySamePart = `
Nodes(ID, Name) :- Customer(ID, Name).
Edges(ID1, ID2) :- Orders(ok1, ID1), LineItem(ok1, pk), Orders(ok2, ID2), LineItem(ok2, pk).
`
	// QuerySameCourse connects students who took the same course (UNIV).
	QuerySameCourse = `
Nodes(ID, Name) :- Student(ID, Name).
Edges(ID1, ID2) :- TookCourse(ID1, c), TookCourse(ID2, c).
`
	// QueryInstructorStudent is [Q3]: the heterogeneous bipartite graph.
	QueryInstructorStudent = `
Nodes(ID, Name) :- Instructor(ID, Name).
Nodes(ID, Name) :- Student(ID, Name).
Edges(ID1, ID2) :- TaughtCourse(ID1, c), TookCourse(ID2, c).
`
)
