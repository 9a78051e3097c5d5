#include "lp/model.hpp"

#include <cmath>
#include <limits>
#include <map>

namespace rahtm::lp {

double infinity() { return std::numeric_limits<double>::infinity(); }

VarId Model::addVariable(const std::string& name, double lb, double ub,
                         VarType type, double objCoeff) {
  if (type == VarType::Binary) {
    lb = 0;
    ub = 1;
  }
  RAHTM_REQUIRE(lb <= ub, "addVariable: empty bound interval for " + name);
  vars_.push_back(Variable{name, lb, ub, type, objCoeff});
  return static_cast<VarId>(vars_.size() - 1);
}

VarId Model::addContinuous(const std::string& name, double lb, double ub,
                           double objCoeff) {
  return addVariable(name, lb, ub, VarType::Continuous, objCoeff);
}

VarId Model::addBinary(const std::string& name, double objCoeff) {
  return addVariable(name, 0, 1, VarType::Binary, objCoeff);
}

void Model::addConstraint(const std::string& name, std::vector<Term> terms,
                          Sense sense, double rhs) {
  std::map<VarId, double> coalesced;
  for (const Term& t : terms) {
    RAHTM_REQUIRE(t.var >= 0 && t.var < static_cast<VarId>(vars_.size()),
                  "addConstraint: bad variable in " + name);
    coalesced[t.var] += t.coeff;
  }
  Constraint c;
  c.name = name;
  c.sense = sense;
  c.rhs = rhs;
  for (const auto& [v, coeff] : coalesced) {
    if (coeff != 0) c.terms.push_back(Term{v, coeff});
  }
  cons_.push_back(std::move(c));
}

const Variable& Model::variable(VarId v) const {
  RAHTM_REQUIRE(v >= 0 && v < static_cast<VarId>(vars_.size()),
                "variable: bad id");
  return vars_[static_cast<std::size_t>(v)];
}

Variable& Model::variable(VarId v) {
  RAHTM_REQUIRE(v >= 0 && v < static_cast<VarId>(vars_.size()),
                "variable: bad id");
  return vars_[static_cast<std::size_t>(v)];
}

const Constraint& Model::constraint(std::size_t i) const {
  RAHTM_REQUIRE(i < cons_.size(), "constraint: bad index");
  return cons_[i];
}

double Model::objectiveValue(const std::vector<double>& x) const {
  RAHTM_REQUIRE(x.size() == vars_.size(), "objectiveValue: size mismatch");
  double obj = 0;
  for (std::size_t i = 0; i < vars_.size(); ++i) obj += vars_[i].objCoeff * x[i];
  return obj;
}

bool Model::isFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (x[i] < vars_[i].lb - tol || x[i] > vars_[i].ub + tol) return false;
    if (vars_[i].type != VarType::Continuous &&
        std::abs(x[i] - std::round(x[i])) > tol)
      return false;
  }
  for (const Constraint& c : cons_) {
    double lhs = 0;
    for (const Term& t : c.terms) lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    switch (c.sense) {
      case Sense::LessEq:
        if (lhs > c.rhs + tol) return false;
        break;
      case Sense::GreaterEq:
        if (lhs < c.rhs - tol) return false;
        break;
      case Sense::Equal:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace rahtm::lp
