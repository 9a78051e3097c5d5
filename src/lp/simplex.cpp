#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace rahtm::lp {

const char* toString(SolveStatus s) {
  switch (s) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterLimit: return "iteration-limit";
    case SolveStatus::NodeLimit: return "node-limit";
    case SolveStatus::TimeLimit: return "time-limit";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-8;  // feasibility / pricing tolerance

enum class ColState : std::uint8_t { Basic, AtLower, AtUpper };

/// Dense bounded-variable simplex working state.
class Simplex {
 public:
  Simplex(const Model& model, const SimplexOptions& opts)
      : model_(model), opts_(opts) {
    standardize();
  }

  LpSolution run() {
    LpSolution out;
    struct PivotExport {
      // Export the work counts on every return path.
      const Simplex& s;
      LpSolution& o;
      ~PivotExport() {
        o.pivots = s.pivots_;
        o.refactorizations = s.refactorizations_;
        o.singularBasis = s.singularBasis_;
      }
    } pivotExport{*this, out};
    // ---- Phase 1: minimize sum of artificials ----
    setPhase1Costs();
    if (!refactorize()) {
      out.status = SolveStatus::IterLimit;
      return out;
    }
    SolveStatus s1 = iterate();
    if (s1 == SolveStatus::IterLimit) {
      out.status = s1;
      return out;
    }
    if (phaseObjective() > 1e-6) {
      out.status = SolveStatus::Infeasible;
      return out;
    }
    // Pin artificials to zero so they can never carry value again.
    for (int a = 0; a < m_; ++a) {
      ub_[nStored_ + a] = 0;
    }
    // ---- Phase 2: real objective ----
    setPhase2Costs();
    if (!refactorize()) {
      out.status = SolveStatus::IterLimit;
      return out;
    }
    SolveStatus s2 = iterate();
    out.status = s2;
    if (s2 != SolveStatus::Optimal) return out;

    // Extract structural variable values.
    std::vector<double> full(static_cast<std::size_t>(nTotal_), 0);
    for (int j = 0; j < nTotal_; ++j) {
      if (state_[j] == ColState::AtLower) full[j] = lb_[j];
      else if (state_[j] == ColState::AtUpper) full[j] = ub_[j];
    }
    for (int i = 0; i < m_; ++i) full[basis_[i]] = beta_[i];
    out.x.assign(full.begin(), full.begin() + static_cast<long>(model_.numVariables()));
    out.objective = model_.objectiveValue(out.x);
    return out;
  }

 private:
  // --- Standard form -------------------------------------------------------
  // Columns: [0, nVars) structural, [nVars, nStored) slacks,
  // [nStored, nTotal) virtual artificials (column = sign_i * e_i).
  void standardize() {
    const auto nVars = static_cast<int>(model_.numVariables());
    m_ = static_cast<int>(model_.numConstraints());
    nStored_ = nVars + m_;
    nTotal_ = nStored_ + m_;

    lb_.assign(nTotal_, 0);
    ub_.assign(nTotal_, kInf);
    cost_.assign(nTotal_, 0);
    const double sign = model_.objectiveSense() == Objective::Minimize ? 1 : -1;
    for (int j = 0; j < nVars; ++j) {
      const Variable& v = model_.variable(j);
      RAHTM_REQUIRE(std::isfinite(v.lb),
                    "simplex: variables must have finite lower bounds");
      lb_[j] = v.lb;
      ub_[j] = v.ub;
      cost_[j] = sign * v.objCoeff;
    }

    // Rows: >= rows are negated into <= rows; every row gets a slack.
    a_.assign(static_cast<std::size_t>(m_) * nStored_, 0);
    b_.assign(m_, 0);
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = model_.constraint(static_cast<std::size_t>(i));
      const double rowSign = (c.sense == Sense::GreaterEq) ? -1 : 1;
      for (const Term& t : c.terms) {
        a_[static_cast<std::size_t>(i) * nStored_ + t.var] += rowSign * t.coeff;
      }
      b_[i] = rowSign * c.rhs;
      const int slack = nVars + i;
      a_[static_cast<std::size_t>(i) * nStored_ + slack] = 1;
      if (c.sense == Sense::Equal) ub_[slack] = 0;  // slack fixed at 0
    }

    // Initial point: all stored columns nonbasic at lower bound.
    state_.assign(nTotal_, ColState::AtLower);
    basis_.resize(m_);
    artSign_.assign(m_, 1.0);
    std::vector<double> resid(b_);
    for (int j = 0; j < nStored_; ++j) {
      if (lb_[j] == 0) continue;
      for (int i = 0; i < m_; ++i) {
        resid[i] -= a_[static_cast<std::size_t>(i) * nStored_ + j] * lb_[j];
      }
    }
    for (int i = 0; i < m_; ++i) {
      artSign_[i] = resid[i] >= 0 ? 1.0 : -1.0;
      basis_[i] = nStored_ + i;
      state_[nStored_ + i] = ColState::Basic;
    }

    tableau_.assign(static_cast<std::size_t>(m_) * nStored_, 0);
    beta_.assign(m_, 0);
    redCost_.assign(nStored_, 0);

    // The two m x nStored matrices dominate; everything else is O(m + n).
    mem_.set(static_cast<std::int64_t>(
        (a_.capacity() + tableau_.capacity() + b_.capacity() +
         lb_.capacity() + ub_.capacity() + cost_.capacity() +
         activeCost_.capacity() + artSign_.capacity() + beta_.capacity() +
         redCost_.capacity()) *
            sizeof(double) +
        basis_.capacity() * sizeof(int) +
        state_.capacity() * sizeof(ColState)));
  }

  void setPhase1Costs() {
    phase1_ = true;
    activeCost_.assign(nTotal_, 0);
    for (int a = 0; a < m_; ++a) activeCost_[nStored_ + a] = 1;
  }

  void setPhase2Costs() {
    phase1_ = false;
    activeCost_ = cost_;
  }

  double colLower(int j) const { return lb_[j]; }
  double colUpper(int j) const { return ub_[j]; }

  /// Original column j (stored or virtual) into out[m].
  void originalColumn(int j, std::vector<double>& out) const {
    out.assign(m_, 0);
    if (j < nStored_) {
      for (int i = 0; i < m_; ++i) {
        out[i] = a_[static_cast<std::size_t>(i) * nStored_ + j];
      }
    } else {
      out[j - nStored_] = artSign_[j - nStored_];
    }
  }

  /// Rebuild B^-1-applied tableau, basic values and reduced costs from the
  /// original data (Gauss-Jordan with partial pivoting). Returns false when
  /// accumulated pivoting error has left the basis numerically singular —
  /// callers abandon the solve with IterLimit, which the MILP layer treats
  /// as an unresolved (never silently pruned) node.
  bool refactorize() {
    ++refactorizations_;
    // Build the basis matrix augmented with identity.
    std::vector<double> binv(static_cast<std::size_t>(m_) * m_, 0);
    std::vector<double> bmat(static_cast<std::size_t>(m_) * m_, 0);
    std::vector<double> col;
    for (int k = 0; k < m_; ++k) {
      originalColumn(basis_[k], col);
      for (int i = 0; i < m_; ++i) bmat[static_cast<std::size_t>(i) * m_ + k] = col[i];
      binv[static_cast<std::size_t>(k) * m_ + k] = 1;
    }
    // Invert bmat into binv (Gauss-Jordan, partial pivoting).
    for (int p = 0; p < m_; ++p) {
      int pivRow = p;
      double best = std::abs(bmat[static_cast<std::size_t>(p) * m_ + p]);
      for (int i = p + 1; i < m_; ++i) {
        const double v = std::abs(bmat[static_cast<std::size_t>(i) * m_ + p]);
        if (v > best) {
          best = v;
          pivRow = i;
        }
      }
      if (best <= 1e-12) {  // numerically singular basis
        singularBasis_ = true;
        return false;
      }
      if (pivRow != p) {
        for (int j = 0; j < m_; ++j) {
          std::swap(bmat[static_cast<std::size_t>(pivRow) * m_ + j],
                    bmat[static_cast<std::size_t>(p) * m_ + j]);
          std::swap(binv[static_cast<std::size_t>(pivRow) * m_ + j],
                    binv[static_cast<std::size_t>(p) * m_ + j]);
        }
      }
      const double piv = bmat[static_cast<std::size_t>(p) * m_ + p];
      for (int j = 0; j < m_; ++j) {
        bmat[static_cast<std::size_t>(p) * m_ + j] /= piv;
        binv[static_cast<std::size_t>(p) * m_ + j] /= piv;
      }
      for (int i = 0; i < m_; ++i) {
        if (i == p) continue;
        const double f = bmat[static_cast<std::size_t>(i) * m_ + p];
        if (f == 0) continue;
        for (int j = 0; j < m_; ++j) {
          bmat[static_cast<std::size_t>(i) * m_ + j] -=
              f * bmat[static_cast<std::size_t>(p) * m_ + j];
          binv[static_cast<std::size_t>(i) * m_ + j] -=
              f * binv[static_cast<std::size_t>(p) * m_ + j];
        }
      }
    }

    // tableau = binv * A_stored
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < nStored_; ++j) {
        tableau_[static_cast<std::size_t>(i) * nStored_ + j] = 0;
      }
    }
    for (int i = 0; i < m_; ++i) {
      for (int k = 0; k < m_; ++k) {
        const double f = binv[static_cast<std::size_t>(i) * m_ + k];
        if (f == 0) continue;
        const double* arow = &a_[static_cast<std::size_t>(k) * nStored_];
        double* trow = &tableau_[static_cast<std::size_t>(i) * nStored_];
        for (int j = 0; j < nStored_; ++j) trow[j] += f * arow[j];
      }
    }

    // beta = binv * (b - A_N x_N)
    std::vector<double> resid(b_);
    for (int j = 0; j < nTotal_; ++j) {
      if (state_[j] == ColState::Basic) continue;
      const double xj = (state_[j] == ColState::AtLower) ? lb_[j] : ub_[j];
      if (xj == 0) continue;
      originalColumn(j, colBuf_);
      for (int i = 0; i < m_; ++i) resid[i] -= colBuf_[i] * xj;
    }
    for (int i = 0; i < m_; ++i) {
      double v = 0;
      for (int k = 0; k < m_; ++k) {
        v += binv[static_cast<std::size_t>(i) * m_ + k] * resid[k];
      }
      beta_[i] = v;
    }

    // y = c_B^T binv ; reduced costs for stored columns.
    std::vector<double> y(m_, 0);
    for (int k = 0; k < m_; ++k) {
      const double cb = activeCost_[basis_[k]];
      if (cb == 0) continue;
      for (int j = 0; j < m_; ++j) {
        y[j] += cb * binv[static_cast<std::size_t>(k) * m_ + j];
      }
    }
    for (int j = 0; j < nStored_; ++j) {
      double d = activeCost_[j];
      for (int i = 0; i < m_; ++i) {
        d -= y[i] * a_[static_cast<std::size_t>(i) * nStored_ + j];
      }
      redCost_[j] = d;
    }
    return true;
  }

  double phaseObjective() const {
    double obj = 0;
    for (int i = 0; i < m_; ++i) {
      obj += activeCost_[basis_[i]] * beta_[i];
    }
    // Nonbasic columns with nonzero active cost (phase 2 only).
    for (int j = 0; j < nTotal_; ++j) {
      if (state_[j] == ColState::Basic || activeCost_[j] == 0) continue;
      obj += activeCost_[j] * ((state_[j] == ColState::AtLower) ? lb_[j] : ub_[j]);
    }
    return obj;
  }

  /// One simplex phase; returns Optimal / Unbounded / IterLimit.
  SolveStatus iterate() {
    const long maxIters =
        opts_.maxIterations > 0
            ? opts_.maxIterations
            : 200L * (m_ + nStored_) + 20000L;
    long stall = 0;
    int sincePivot = 0;
    double lastObj = phaseObjective();
    for (long iter = 0; iter < maxIters; ++iter) {
      if (opts_.timeLimitSec > 0 && (iter & 63) == 0 &&
          timer_.seconds() > opts_.timeLimitSec) {
        return SolveStatus::IterLimit;
      }
      const bool bland = stall > 2L * m_ + 50;
      const int enter = chooseEntering(bland);
      if (enter < 0) return SolveStatus::Optimal;

      // Direction: +1 entering rises from lower bound, -1 falls from upper.
      const double sigma = (state_[enter] == ColState::AtLower) ? 1.0 : -1.0;

      // Ratio test over basic variables + the entering bound flip.
      double tMax = colUpper(enter) - colLower(enter);  // bound-flip distance
      int leaveRow = -1;
      double leaveBound = 0;  // bound the leaving variable hits
      for (int i = 0; i < m_; ++i) {
        // The entering column is always stored (artificials never re-enter).
        const double alpha =
            tableau_[static_cast<std::size_t>(i) * nStored_ + enter];
        const double step = sigma * alpha;
        const int bj = basis_[i];
        if (step > kTol) {
          const double room = (beta_[i] - colLower(bj)) / step;
          if (room < tMax) {
            tMax = std::max(room, 0.0);
            leaveRow = i;
            leaveBound = colLower(bj);
          }
        } else if (step < -kTol) {
          if (colUpper(bj) == kInf) continue;
          const double room = (colUpper(bj) - beta_[i]) / (-step);
          if (room < tMax) {
            tMax = std::max(room, 0.0);
            leaveRow = i;
            leaveBound = colUpper(bj);
          }
        }
      }

      if (tMax == kInf) return SolveStatus::Unbounded;

      if (leaveRow < 0) {
        // Bound flip: entering moves across its interval, no basis change.
        applyBoundFlip(enter, sigma, tMax);
      } else {
        applyPivot(enter, sigma, tMax, leaveRow, leaveBound);
        ++pivots_;
        obs::Heartbeats::instance().beat(obs::Pulse::SimplexPivots);
        if ((pivots_ & 4095) == 0) {
          obs::FlightRecorder::instance().record(obs::FrEvent::SimplexPivots,
                                                 pivots_, m_);
        }
        if (++sincePivot >= opts_.refactorEvery) {
          if (!refactorize()) return SolveStatus::IterLimit;
          sincePivot = 0;
        }
      }

      const double obj = phaseObjective();
      if (obj < lastObj - 1e-12) {
        stall = 0;
        lastObj = obj;
      } else {
        ++stall;
      }
    }
    return SolveStatus::IterLimit;
  }

  int chooseEntering(bool bland) const {
    int best = -1;
    double bestScore = kTol;
    for (int j = 0; j < nStored_; ++j) {
      if (state_[j] == ColState::Basic) continue;
      if (colLower(j) == colUpper(j)) continue;  // fixed, cannot move
      double viol = 0;
      if (state_[j] == ColState::AtLower && redCost_[j] < -kTol) {
        viol = -redCost_[j];
      } else if (state_[j] == ColState::AtUpper && redCost_[j] > kTol) {
        viol = redCost_[j];
      } else {
        continue;
      }
      if (bland) return j;  // first eligible index
      if (viol > bestScore) {
        bestScore = viol;
        best = j;
      }
    }
    return best;
  }

  void applyBoundFlip(int enter, double sigma, double t) {
    for (int i = 0; i < m_; ++i) {
      beta_[i] -= sigma * t *
                  tableau_[static_cast<std::size_t>(i) * nStored_ + enter];
    }
    state_[enter] = (state_[enter] == ColState::AtLower) ? ColState::AtUpper
                                                         : ColState::AtLower;
  }

  void applyPivot(int enter, double sigma, double t, int leaveRow,
                  double leaveBound) {
    const int leave = basis_[leaveRow];
    // New basic values before the elimination step.
    for (int i = 0; i < m_; ++i) {
      if (i == leaveRow) continue;
      beta_[i] -= sigma * t *
                  tableau_[static_cast<std::size_t>(i) * nStored_ + enter];
    }
    const double enterStart =
        (state_[enter] == ColState::AtLower) ? colLower(enter) : colUpper(enter);
    const double enterValue = enterStart + sigma * t;

    // Gauss-Jordan elimination on the entering column.
    double* prow = &tableau_[static_cast<std::size_t>(leaveRow) * nStored_];
    const double piv = prow[enter];
    RAHTM_REQUIRE(std::abs(piv) > 1e-12, "simplex: zero pivot");
    for (int j = 0; j < nStored_; ++j) prow[j] /= piv;
    for (int i = 0; i < m_; ++i) {
      if (i == leaveRow) continue;
      double* row = &tableau_[static_cast<std::size_t>(i) * nStored_];
      const double f = row[enter];
      if (f == 0) continue;
      for (int j = 0; j < nStored_; ++j) row[j] -= f * prow[j];
    }
    const double dEnter = redCost_[enter];
    if (dEnter != 0) {
      for (int j = 0; j < nStored_; ++j) redCost_[j] -= dEnter * prow[j];
    }

    // Book-keeping.
    basis_[leaveRow] = enter;
    beta_[leaveRow] = enterValue;
    state_[enter] = ColState::Basic;
    if (leave < nStored_) {
      state_[leave] = (leaveBound == colLower(leave)) ? ColState::AtLower
                                                      : ColState::AtUpper;
    } else {
      state_[leave] = ColState::AtLower;  // artificial leaves at 0
    }
  }

  const Model& model_;
  SimplexOptions opts_;

  int m_ = 0;        // rows
  int nStored_ = 0;  // structural + slack columns
  int nTotal_ = 0;   // + artificials

  std::vector<double> a_;        // m x nStored original matrix
  std::vector<double> b_;        // rhs
  std::vector<double> lb_, ub_;  // per column (incl. artificials)
  std::vector<double> cost_;     // phase-2 costs
  std::vector<double> activeCost_;
  std::vector<double> artSign_;  // artificial column signs

  std::vector<double> tableau_;  // m x nStored
  std::vector<double> beta_;     // basic values
  std::vector<double> redCost_;  // reduced costs (stored columns)
  std::vector<int> basis_;
  std::vector<ColState> state_;
  bool phase1_ = true;
  long pivots_ = 0;
  long refactorizations_ = 0;
  bool singularBasis_ = false;
  Timer timer_;  ///< started at construction; enforces timeLimitSec

  mutable std::vector<double> colBuf_;
  obs::MemAccount mem_{obs::MemAccountId::Lp};
};

}  // namespace

namespace {

/// One metrics touch per solve — never per pivot.
void recordSolve(const LpSolution& out) {
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg == nullptr) return;
  reg->counter("lp.simplex.solves").add(1);
  reg->counter("lp.simplex.pivots").add(out.pivots);
  reg->counter("lp.simplex.refactorizations").add(out.refactorizations);
  reg->counter("lp.simplex.singular_bases").add(out.singularBasis ? 1 : 0);
  reg->histogram("lp.simplex.pivots_per_solve", obs::expBuckets(1, 2, 20))
      .observe(static_cast<double>(out.pivots));
}

}  // namespace

LpSolution solveLp(const Model& model, const SimplexOptions& opts) {
  if (model.numConstraints() == 0) {
    // Pure bound problem: each variable sits on its best bound.
    LpSolution out;
    out.status = SolveStatus::Optimal;
    out.x.resize(model.numVariables());
    const double sign = model.objectiveSense() == Objective::Minimize ? 1 : -1;
    for (std::size_t j = 0; j < model.numVariables(); ++j) {
      const Variable& v = model.variable(static_cast<VarId>(j));
      const double c = sign * v.objCoeff;
      if (c > 0) {
        out.x[j] = v.lb;
      } else if (c < 0) {
        if (!std::isfinite(v.ub)) {
          out.status = SolveStatus::Unbounded;
          recordSolve(out);
          return out;
        }
        out.x[j] = v.ub;
      } else {
        out.x[j] = v.lb;
      }
    }
    out.objective = model.objectiveValue(out.x);
    recordSolve(out);
    return out;
  }
  Simplex s(model, opts);
  LpSolution out = s.run();
  recordSolve(out);
  return out;
}

}  // namespace rahtm::lp
