// chameleon-checker fixture: a constructor whose last parameter defaults
// to `= {}` and that has a mem-initializer list. The constructor body must
// be indexed under the constructor, not under the initializer's last
// callee: read as the body of `std::move`, its `new` would make every
// `std::move` call "may allocate", and the spinlocked `C.load()` below
// would be flagged. Never compiled — analyzed by
// tests/analysis/CheckerTest.cpp; must produce no findings.

namespace std {
template <class T> T &&move(T &V);
}

struct SpinLock {
  void lock();
  void unlock();
};
struct SpinLockGuard {
  SpinLockGuard(SpinLock &L);
};

struct Options {
  Options(int A, int *Rest = {}) : A(A), Rest(std::move(Rest)) {
    Extra = new int[4];
  }
  int A;
  int *Rest;
  int *Extra = nullptr;
};

struct Cell {
  int V = 0;
  int load() const;
};

int Cell::load() const {
  int Copy = V;
  return std::move(Copy);
}

struct Reader {
  SpinLock Mu;
  Cell C;

  int read() {
    SpinLockGuard G(Mu);
    return C.load();
  }
};
