#pragma once
/// \file model.hpp
/// Declarative LP / MILP model: variables with bounds and types, linear
/// constraints, and a linear objective. The paper solved its Table II
/// formulation with CPLEX; this library provides its own solver stack
/// (simplex.hpp, milp.hpp) over this model type.

#include <string>
#include <vector>

#include "common/error.hpp"

namespace rahtm::lp {

/// Variable index within a Model.
using VarId = int;

enum class VarType { Continuous, Binary, Integer };

enum class Sense { LessEq, Equal, GreaterEq };

enum class Objective { Minimize, Maximize };

/// +infinity for bounds.
double infinity();

struct Variable {
  std::string name;
  double lb = 0;
  double ub = 0;
  VarType type = VarType::Continuous;
  double objCoeff = 0;
};

/// One linear term: coefficient * variable.
struct Term {
  VarId var = -1;
  double coeff = 0;
};

struct Constraint {
  std::string name;
  std::vector<Term> terms;
  Sense sense = Sense::LessEq;
  double rhs = 0;
};

class Model {
 public:
  /// Add a variable; returns its id. Binary variables get bounds [0,1]
  /// regardless of the arguments passed.
  VarId addVariable(const std::string& name, double lb, double ub,
                    VarType type = VarType::Continuous, double objCoeff = 0);

  /// Convenience wrappers.
  VarId addContinuous(const std::string& name, double lb, double ub,
                      double objCoeff = 0);
  VarId addBinary(const std::string& name, double objCoeff = 0);

  void setObjective(Objective sense) { objective_ = sense; }
  Objective objectiveSense() const { return objective_; }

  /// Add constraint Σ terms (sense) rhs. Duplicate variables within a
  /// constraint are coalesced.
  void addConstraint(const std::string& name, std::vector<Term> terms,
                     Sense sense, double rhs);

  std::size_t numVariables() const { return vars_.size(); }
  std::size_t numConstraints() const { return cons_.size(); }
  const Variable& variable(VarId v) const;
  Variable& variable(VarId v);
  const Constraint& constraint(std::size_t i) const;
  const std::vector<Variable>& variables() const { return vars_; }
  const std::vector<Constraint>& constraints() const { return cons_; }

  /// Evaluate the objective at a point.
  double objectiveValue(const std::vector<double>& x) const;

  /// Verify that \p x satisfies all bounds and constraints within \p tol.
  bool isFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> cons_;
  Objective objective_ = Objective::Minimize;
};

}  // namespace rahtm::lp
