//! The query hypergraph `H(Q) = (V, E)`: one vertex per variable, one
//! hyperedge per query atom (Section 2 of the paper).

use crate::fxhash::FxHashMap;
use crate::ids::{EdgeId, EdgeSet, Var, VarSet};
use std::fmt;
use std::sync::Arc;

/// A named hyperedge: the set of variables of one query atom.
#[derive(Clone, Debug)]
pub struct Hyperedge {
    /// Display name, typically the atom/relation name (`lineitem`, `b`, ...).
    pub name: String,
    /// The variables the edge spans.
    pub vars: VarSet,
}

/// A hypergraph over named variables and named hyperedges.
///
/// Construction goes through [`HypergraphBuilder`], which interns variable
/// names; after that the structure is immutable, and all algorithms operate
/// on the dense [`Var`]/[`EdgeId`] index spaces.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    /// Shared, so that evaluation can name its columns by cloning them.
    var_names: Vec<Arc<str>>,
    edges: Vec<Hyperedge>,
    /// `incidence[v]` = set of edges containing variable `v`.
    incidence: Vec<EdgeSet>,
}

impl Hypergraph {
    /// Starts building a hypergraph.
    pub fn builder() -> HypergraphBuilder {
        HypergraphBuilder::default()
    }

    /// Number of variables (vertices).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of hyperedges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The set of all variables.
    pub fn all_vars(&self) -> VarSet {
        VarSet::full(self.num_vars())
    }

    /// The set of all edges.
    pub fn all_edges(&self) -> EdgeSet {
        EdgeSet::full(self.num_edges())
    }

    /// Display name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// The name of a variable as a shared handle: cloning it copies no
    /// string.
    pub fn shared_var_name(&self, v: Var) -> &Arc<str> {
        &self.var_names[v.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| **n == *name)
            .map(|i| Var(i as u32))
    }

    /// Looks an edge up by name (first match).
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeId> {
        self.edges
            .iter()
            .position(|e| e.name == name)
            .map(|i| EdgeId(i as u32))
    }

    /// The edge with the given id.
    pub fn edge(&self, e: EdgeId) -> &Hyperedge {
        &self.edges[e.index()]
    }

    /// Variables of the edge with the given id.
    pub fn edge_vars(&self, e: EdgeId) -> &VarSet {
        &self.edges[e.index()].vars
    }

    /// Display name of an edge.
    pub fn edge_name(&self, e: EdgeId) -> &str {
        &self.edges[e.index()].name
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = Var> {
        (0..self.num_vars() as u32).map(Var)
    }

    /// Edges containing variable `v`.
    pub fn edges_with_var(&self, v: Var) -> &EdgeSet {
        &self.incidence[v.index()]
    }

    /// `var(S)`: union of the variables of all edges in `S`.
    pub fn vars_of_edges(&self, edges: &EdgeSet) -> VarSet {
        let mut vs = VarSet::new();
        for e in edges.iter() {
            vs.union_with(self.edge_vars(e));
        }
        vs
    }

    /// Renders variable-set contents with human-readable names (debugging).
    pub fn display_vars(&self, vs: &VarSet) -> String {
        let names: Vec<&str> = vs.iter().map(|v| self.var_name(v)).collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hypergraph ({} vars, {} edges)",
            self.num_vars(),
            self.num_edges()
        )?;
        for e in self.edge_ids() {
            writeln!(
                f,
                "  {} {}",
                self.edge_name(e),
                self.display_vars(self.edge_vars(e))
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Hypergraph`]: interns variable names and records edges.
#[derive(Default)]
pub struct HypergraphBuilder {
    var_names: Vec<Arc<str>>,
    var_index: FxHashMap<String, Var>,
    edges: Vec<Hyperedge>,
}

impl HypergraphBuilder {
    /// Interns a variable name, returning its id (idempotent).
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.var_index.get(name) {
            return v;
        }
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.into());
        self.var_index.insert(name.to_string(), v);
        v
    }

    /// Adds an edge over already-interned variables.
    pub fn edge_of(&mut self, name: &str, vars: VarSet) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Hyperedge {
            name: name.to_string(),
            vars,
        });
        id
    }

    /// Adds an edge, interning its variable names.
    pub fn edge(&mut self, name: &str, var_names: &[&str]) -> EdgeId {
        let vars: VarSet = var_names.iter().map(|n| self.var(n)).collect();
        self.edge_of(name, vars)
    }

    /// Finalizes the hypergraph, computing incidence indexes.
    pub fn build(self) -> Hypergraph {
        let mut incidence = vec![EdgeSet::new(); self.var_names.len()];
        for (i, e) in self.edges.iter().enumerate() {
            for v in e.vars.iter() {
                incidence[v.index()].insert(EdgeId(i as u32));
            }
        }
        Hypergraph {
            var_names: self.var_names,
            edges: self.edges,
            incidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        let mut b = Hypergraph::builder();
        b.edge("r", &["X", "Y"]);
        b.edge("s", &["Y", "Z"]);
        b.edge("t", &["Z", "X"]);
        b.build()
    }

    #[test]
    fn builder_interns_vars() {
        let h = triangle();
        assert_eq!(h.num_vars(), 3);
        assert_eq!(h.num_edges(), 3);
        let x = h.var_by_name("X").unwrap();
        let y = h.var_by_name("Y").unwrap();
        assert_ne!(x, y);
        assert_eq!(h.var_name(x), "X");
    }

    #[test]
    fn incidence_is_correct() {
        let h = triangle();
        let y = h.var_by_name("Y").unwrap();
        let edges: Vec<&str> = h.edges_with_var(y).iter().map(|e| h.edge_name(e)).collect();
        assert_eq!(edges, vec!["r", "s"]);
    }

    #[test]
    fn vars_of_edges_unions() {
        let h = triangle();
        let r = h.edge_by_name("r").unwrap();
        let s = h.edge_by_name("s").unwrap();
        let es: EdgeSet = [r, s].into_iter().collect();
        let vs = h.vars_of_edges(&es);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs, h.all_vars());
    }

    #[test]
    fn display_helpers() {
        let h = triangle();
        let r = h.edge_by_name("r").unwrap();
        assert_eq!(h.display_vars(h.edge_vars(r)), "{X, Y}");
        let txt = format!("{h}");
        assert!(txt.contains("3 vars"));
        assert!(txt.contains("t {Z, X}") || txt.contains("t {X, Z}"));
    }

    #[test]
    fn edge_lookup_by_name() {
        let h = triangle();
        assert!(h.edge_by_name("s").is_some());
        assert!(h.edge_by_name("nope").is_none());
        assert!(h.var_by_name("W").is_none());
    }
}
