//! The SPARQL competency-question templates.
//!
//! CQ1–CQ3 follow the paper's Listings 1–3. Where the paper's printed
//! query text is visibly truncated, the reconstruction is noted inline:
//!
//! - **CQ1** (Listing 1): the printed fragment shows the
//!   characteristic/class pattern and the `eo:knowledge` exclusion. We add
//!   the ecosystem-presence condition ("check if they matched any of our
//!   environment characteristics", §III-A), the external-only filter
//!   (`feo:isInternal`, §III-B — contextual explanations use external
//!   knowledge only), and the leaf-class filter that Listing 2 uses
//!   explicitly, all of which are required to produce the paper's printed
//!   single-row result.
//! - **CQ2** (Listing 2): reproduced as printed (the paper includes the
//!   knowledge-exclusion and leaf-class filters itself).
//! - **CQ3** (Listing 3): the printed fragment shows the
//!   subPropertyOf/`food:Food`/OPTIONAL skeleton; we reconstruct the
//!   subject binding (`feo:Pregnancy ?property ?baseFood`) and add a
//!   leaf-property filter mirroring Listing 2's leaf-class filters.
//!
//! Each template exists once, as constant text whose parameters are
//! ordinary variables. `Templates` parses and plans all six once per
//! base, and a session binds the parameters with a seed row; the
//! `*_query` functions render each as text with them bound by `BIND`.

use std::collections::BTreeSet;

use feo_ontology::ns::sparql_prologue;
use feo_owl::{ReadSet, SCHEMA_PREDICATES};
use feo_rdf::ledger::LedgerView;
use feo_rdf::vocab::rdf;
use feo_rdf::{GraphView, Overlay, TermId};
use feo_sparql::ast::{
    Expr, GroupCondition, GroupElement, GroupPattern, Modifiers, Path, Projection, ProjectionItem,
    Query, QueryForm, TermPattern, TriplePattern,
};
use feo_sparql::{
    execute_prepared, parse_query, plan_query, plan_seeded, Plan, QueryOptions, QueryResult,
    SparqlError,
};

use crate::question::Question;

/// CQ1 — contextual explanation for "Why should I eat X?". Parameter:
/// `?question`.
const CONTEXTUAL: &str = "\
SELECT DISTINCT ?characteristic ?classes
WHERE {
  ?question feo:hasParameter ?parameter .
  ?parameter feo:hasCharacteristic ?characteristic .
  ?characteristic feo:presentIn feo:CurrentEcosystem .
  ?characteristic a ?classes .
  ?classes rdfs:subClassOf feo:Characteristic .
  FILTER (?classes != feo:Parameter) .
  FILTER NOT EXISTS { ?classes rdfs:subClassOf eo:knowledge } .
  FILTER NOT EXISTS { ?classes feo:isInternal true } .
  FILTER NOT EXISTS { ?sub rdfs:subClassOf ?classes } .
}
ORDER BY ?classes ?characteristic";

/// CQ2 — contrastive explanation for "Why X over Y?" (Listing 2).
/// Parameter: `?question`.
const CONTRASTIVE: &str = "\
SELECT DISTINCT ?factType ?factA ?foilType ?foilB
WHERE {
  ?question feo:hasPrimaryParameter ?parameterA .
  ?question feo:hasSecondaryParameter ?parameterB .
  ?parameterA feo:hasCharacteristic ?factA .
  ?factA a eo:Fact .
  ?factA a ?factType .
  ?factType (rdfs:subClassOf+) feo:Characteristic .
  FILTER NOT EXISTS { ?factType rdfs:subClassOf eo:knowledge } .
  FILTER NOT EXISTS { ?s rdfs:subClassOf ?factType } .
  ?parameterB feo:hasCharacteristic ?foilB .
  ?foilB a eo:Foil .
  ?foilB a ?foilType .
  ?foilType (rdfs:subClassOf+) feo:Characteristic .
  FILTER NOT EXISTS { ?foilType rdfs:subClassOf eo:knowledge } .
  FILTER NOT EXISTS { ?t rdfs:subClassOf ?foilType } .
}
ORDER BY ?factType ?factA ?foilType ?foilB";

/// CQ3 — counterfactual explanation for "What if I was pregnant?"
/// (Listing 3). Parameter: `?hypothesis`, the hypothesis subject
/// (`feo:Pregnancy`, a diet or an ingredient).
const COUNTERFACTUAL: &str = "\
SELECT DISTINCT ?property ?baseFood ?inheritedFood
WHERE {
  ?hypothesis ?property ?baseFood .
  ?property rdfs:subPropertyOf feo:isCharacteristicOf .
  ?baseFood a food:Food .
  OPTIONAL { ?baseFood food:isIngredientOf ?inheritedFood . }
  FILTER NOT EXISTS { ?subp rdfs:subPropertyOf ?property } .
}
ORDER BY ?property ?baseFood ?inheritedFood";

/// Case-based support: how many reference users with a shared
/// characteristic (same diet or a shared goal) like `?food`.
/// Parameters: `?user`, `?food`.
const CASE_BASED: &str = "\
SELECT (COUNT(DISTINCT ?other) AS ?supporters)
WHERE {
  ?other food:likes ?food .
  FILTER (?other != ?user) .
  { ?user food:followsDiet ?d . ?other food:followsDiet ?d . }
  UNION
  { ?user food:hasGoal ?g . ?other food:hasGoal ?g . }
}";

/// Everyday / scientific evidence: knowledge records attached to any
/// characteristic of `?food`. `?recordClass` selects the record type
/// (everyday rule of thumb vs. cited study).
const KNOWLEDGE_RECORD: &str = "\
SELECT DISTINCT ?record ?about ?text ?source
WHERE {
  ?food feo:hasCharacteristic ?about .
  ?record a ?recordClass ;
          eo:inRelationTo ?about ;
          rdfs:comment ?text .
  OPTIONAL { ?record eo:isBasedOn ?source . }
}
ORDER BY ?record";

/// Statistical evidence: among reference users who follow `?diet`, how
/// many achieved their nutritional goal vs. total.
const STATISTICAL: &str = "\
SELECT (COUNT(DISTINCT ?follower) AS ?total)
       (COUNT(DISTINCT ?winner) AS ?succeeded)
WHERE {
  ?follower food:followsDiet ?diet .
  OPTIONAL { ?follower feo:achievedGoal ?g . BIND (?follower AS ?winner) . }
}";

/// One template, parsed and planned once: `params` name the variables
/// a seed row binds, in the order a session passes their values.
pub(crate) struct Prepared {
    pub(crate) query: Query,
    pub(crate) plan: Plan,
    pub(crate) params: &'static [&'static str],
}

impl Prepared {
    /// The triples this template can read in a world that differs from
    /// `base` by ABox triples and their closure: the predicates of its
    /// patterns, and for `?x rdf:type <C>` the class. A pattern over a
    /// schema predicate reads the TBox, the same in every such world,
    /// so it reads nothing a closure adds. A variable predicate reads
    /// the properties the template's schema patterns and filters allow
    /// it on `base`. `None` when one is not bounded that way. `base` is
    /// the view type a session queries, so this one query compiles no
    /// second copy of the evaluator.
    pub(crate) fn reads(&self, base: &Overlay<LedgerView<'_>>) -> Option<ReadSet> {
        let mut reads = ReadSet::default();
        for pattern in patterns(&self.query) {
            match (&pattern.path, &pattern.object) {
                (Path::Iri(p), TermPattern::Iri(class)) if p == rdf::TYPE => {
                    reads.classes.extend(base.lookup_iri(class))
                }
                (Path::Var(var), _) => reads.predicates.extend(self.bound(var, base)?),
                (path, _) => {
                    let read = iris(path)?.into_iter();
                    let read = read.filter(|p| !SCHEMA_PREDICATES.contains(p));
                    reads
                        .predicates
                        .extend(read.filter_map(|p| base.lookup_iri(p)));
                }
            }
        }
        Some(reads)
    }

    /// The values `var` can take in any world over `base`: those the
    /// template's top-level schema patterns, and its top-level
    /// `[NOT] EXISTS` filters over schema patterns alone, allow it on
    /// `base`. A filter is kept only when every variable it shares with
    /// the rest of the template is bound by those patterns, so it means
    /// the same in the bounding query. `None` when no such pattern
    /// names `var`.
    fn bound(&self, var: &str, base: &Overlay<LedgerView<'_>>) -> Option<Vec<TermId>> {
        let top = &self.query.where_pattern.elements;
        let schema: Vec<&TriplePattern> = (top.iter())
            .filter_map(|element| match element {
                GroupElement::Triples(patterns) => Some(patterns),
                _ => None,
            })
            .flatten()
            .filter(|pattern| reads_schema(pattern))
            .collect();
        let bound: BTreeSet<&str> = schema.iter().flat_map(|pattern| vars(pattern)).collect();
        if !bound.contains(var) {
            return None;
        }
        let mut elements = vec![GroupElement::Triples(schema.into_iter().cloned().collect())];
        for (i, element) in top.iter().enumerate() {
            let GroupElement::Filter(Expr::Exists(body, _)) = element else {
                continue;
            };
            let mut elsewhere = BTreeSet::new();
            let others = (top.iter().enumerate()).filter(|&(j, _)| j != i);
            each_element(others.map(|(_, e)| e), &mut |e| binders(e, &mut elsewhere));
            let schema_only = body.elements.iter().all(|e| match e {
                GroupElement::Triples(patterns) => patterns.iter().all(reads_schema),
                _ => false,
            });
            let mut shared = BTreeSet::new();
            each_element(&body.elements, &mut |e| binders(e, &mut shared));
            if schema_only
                && shared
                    .iter()
                    .all(|v| bound.contains(v) || !elsewhere.contains(v))
            {
                elements.push(element.clone());
            }
        }
        let query = Query {
            form: QueryForm::Select {
                distinct: true,
                reduced: false,
                projection: Projection::Items(vec![ProjectionItem::Var(var.to_string())]),
            },
            where_pattern: GroupPattern { elements },
            modifiers: Modifiers::default(),
        };
        let plan = plan_query(base.base(), &query);
        let Ok(QueryResult::Solutions(table)) =
            execute_prepared(base, &query, &plan, &QueryOptions::default())
        else {
            return None;
        };
        let values = table.rows.iter().filter_map(|row| row[0].as_ref());
        Some(values.filter_map(|term| base.lookup(term)).collect())
    }
}

/// Whether `pattern` reads the TBox alone: its predicate is a schema
/// predicate.
fn reads_schema(pattern: &TriplePattern) -> bool {
    matches!(&pattern.path, Path::Iri(p) if SCHEMA_PREDICATES.contains(&p.as_str()))
}

/// The IRIs of a property path; `None` for a negated property set,
/// which can read any predicate.
fn iris(path: &Path) -> Option<Vec<&str>> {
    Some(match path {
        Path::Iri(p) => vec![p.as_str()],
        Path::Var(_) | Path::Negated(_) => return None,
        Path::Inverse(p) | Path::ZeroOrMore(p) | Path::OneOrMore(p) | Path::ZeroOrOne(p) => {
            iris(p)?
        }
        Path::Sequence(a, b) | Path::Alternative(a, b) => [iris(a)?, iris(b)?].concat(),
    })
}

/// The variables `pattern` names.
fn vars(pattern: &TriplePattern) -> impl Iterator<Item = &str> {
    let path = match &pattern.path {
        Path::Var(v) => Some(v.as_str()),
        _ => None,
    };
    let terms = [&pattern.subject, &pattern.object].into_iter();
    (terms.filter_map(|t| match t {
        TermPattern::Var(v) => Some(v.as_str()),
        _ => None,
    }))
    .chain(path)
}

/// Adds the variables `element` binds (not those of its nested groups).
fn binders<'q>(element: &'q GroupElement, out: &mut BTreeSet<&'q str>) {
    match element {
        GroupElement::Triples(patterns) => out.extend(patterns.iter().flat_map(vars)),
        GroupElement::Bind(_, var) => _ = out.insert(var),
        GroupElement::Values(values) => out.extend(values.vars.iter().map(String::as_str)),
        _ => {}
    }
}

/// Every triple pattern of `query`: in its WHERE group, the groups
/// nested there, and every EXISTS body.
fn patterns(query: &Query) -> Vec<&TriplePattern> {
    let mut bodies = vec![&query.where_pattern];
    if let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    {
        for item in items {
            if let ProjectionItem::Expr(e, _) = item {
                exists_bodies(e, &mut bodies);
            }
        }
    }
    let modifiers = &query.modifiers;
    let grouped = (modifiers.group_by.iter()).filter_map(|g| match g {
        GroupCondition::Expr(e, _) => Some(e),
        GroupCondition::Var(_) => None,
    });
    let ordered = modifiers.order_by.iter().map(|o| &o.expr);
    for e in grouped.chain(ordered).chain(&modifiers.having) {
        exists_bodies(e, &mut bodies);
    }
    let mut out = Vec::new();
    for body in bodies {
        each_element(&body.elements, &mut |e| {
            if let GroupElement::Triples(patterns) = e {
                out.extend(patterns);
            }
        });
    }
    out
}

/// Calls `visit` on every element of `elements`, of the groups nested
/// in them and of the EXISTS bodies in their expressions.
fn each_element<'q>(
    elements: impl IntoIterator<Item = &'q GroupElement>,
    visit: &mut dyn FnMut(&'q GroupElement),
) {
    for element in elements {
        visit(element);
        let mut groups = Vec::new();
        match element {
            GroupElement::Optional(g) | GroupElement::Minus(g) | GroupElement::Group(g) => {
                groups.push(g)
            }
            GroupElement::Union(arms) => groups.extend(arms),
            GroupElement::Filter(e) | GroupElement::Bind(e, _) => exists_bodies(e, &mut groups),
            GroupElement::Triples(_) | GroupElement::Values(_) => {}
        }
        for group in groups {
            each_element(&group.elements, visit);
        }
    }
}

/// Adds the EXISTS bodies in `expr`.
fn exists_bodies<'q>(expr: &'q Expr, out: &mut Vec<&'q GroupPattern>) {
    match expr {
        Expr::Exists(group, _) => out.push(group),
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            exists_bodies(a, out);
            exists_bodies(b, out);
        }
        Expr::Not(a) | Expr::UnaryMinus(a) => exists_bodies(a, out),
        Expr::In(a, list, _) => {
            exists_bodies(a, out);
            list.iter().for_each(|e| exists_bodies(e, out));
        }
        Expr::Call(_, args) => args.iter().for_each(|e| exists_bodies(e, out)),
        Expr::Aggregate(aggregate) => (aggregate.expr.iter()).for_each(|e| exists_bodies(e, out)),
        Expr::Var(_) | Expr::Iri(_) | Expr::Literal(_) => {}
    }
}

/// The six templates behind the seven SPARQL-backed explanation types,
/// prepared against the statistics of the base they serve. A plan holds
/// join orders, not term ids, so it stays valid on every later epoch,
/// branch and compaction of that base.
pub(crate) struct Templates {
    pub(crate) contextual: Prepared,
    pub(crate) contrastive: Prepared,
    pub(crate) counterfactual: Prepared,
    pub(crate) case_based: Prepared,
    pub(crate) knowledge_record: Prepared,
    pub(crate) statistical: Prepared,
}

impl Templates {
    pub(crate) fn prepare<G: GraphView>(view: &G) -> Result<Self, SparqlError> {
        let prologue = sparql_prologue();
        let prepare = |template: &str, params: &'static [&'static str]| {
            let query = parse_query(&format!("{prologue}{template}"))?;
            let plan = plan_seeded(view, &query, params);
            Ok::<_, SparqlError>(Prepared {
                query,
                plan,
                params,
            })
        };
        Ok(Templates {
            contextual: prepare(CONTEXTUAL, &["question"])?,
            contrastive: prepare(CONTRASTIVE, &["question"])?,
            counterfactual: prepare(COUNTERFACTUAL, &["hypothesis"])?,
            case_based: prepare(CASE_BASED, &["user", "food"])?,
            knowledge_record: prepare(KNOWLEDGE_RECORD, &["food", "recordClass"])?,
            statistical: prepare(STATISTICAL, &["diet"])?,
        })
    }
}

/// `template` as standalone text: the prologue, then a `BIND` of each
/// `(variable, IRI)` parameter at the top of the WHERE group.
fn render(template: &str, params: &[(&str, &str)]) -> String {
    let binds: String = params
        .iter()
        .map(|(var, iri)| format!("  BIND (<{iri}> AS ?{var}) .\n"))
        .collect();
    let body = template.replacen("WHERE {\n", &format!("WHERE {{\n{binds}"), 1);
    format!("{}{body}", sparql_prologue())
}

/// CQ1 as text, bound to `question`.
pub fn contextual_query(question: &Question) -> String {
    render(CONTEXTUAL, &[("question", &question.iri())])
}

/// CQ2 as text, bound to `question`.
pub fn contrastive_query(question: &Question) -> String {
    render(CONTRASTIVE, &[("question", &question.iri())])
}

/// CQ3 as text, bound to the hypothesis subject `hypothesis_iri`.
pub fn counterfactual_query(hypothesis_iri: &str) -> String {
    render(COUNTERFACTUAL, &[("hypothesis", hypothesis_iri)])
}

/// The case-based template as text, bound to `user_iri` and `food_iri`.
pub fn case_based_query(user_iri: &str, food_iri: &str) -> String {
    render(CASE_BASED, &[("user", user_iri), ("food", food_iri)])
}

/// The knowledge-record template as text, bound to `food_iri` and the
/// record class `record_class`.
pub fn knowledge_record_query(food_iri: &str, record_class: &str) -> String {
    render(
        KNOWLEDGE_RECORD,
        &[("food", food_iri), ("recordClass", record_class)],
    )
}

/// The statistical template as text, bound to `diet_iri`.
pub fn statistical_query(diet_iri: &str) -> String {
    render(STATISTICAL, &[("diet", diet_iri)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::Question;
    use feo_rdf::Graph;

    #[test]
    fn all_templates_parse() {
        Templates::prepare(&Graph::new()).expect("every template parses");

        let q1 = contextual_query(&Question::WhyEat {
            food: "CauliflowerPotatoCurry".into(),
        });
        parse_query(&q1).expect("CQ1 parses");
        let q2 = contrastive_query(&Question::WhyEatOver {
            preferred: "ButternutSquashSoup".into(),
            alternative: "BroccoliCheddarSoup".into(),
        });
        parse_query(&q2).expect("CQ2 parses");
        let q3 = counterfactual_query(feo_ontology::ns::feo::PREGNANCY_STATE);
        parse_query(&q3).expect("CQ3 parses");
        assert!(q3.contains("BIND (<https://purl.org/heals/feo#Pregnancy> AS ?hypothesis)"));
    }

    #[test]
    fn cq2_mirrors_listing_two_structure() {
        let q = contrastive_query(&Question::WhyEatOver {
            preferred: "A".into(),
            alternative: "B".into(),
        });
        assert!(q.contains("hasPrimaryParameter"));
        assert!(q.contains("hasSecondaryParameter"));
        assert!(q.contains("eo:Fact"));
        assert!(q.contains("eo:Foil"));
        assert!(q.contains("rdfs:subClassOf+"));
        assert_eq!(q.matches("FILTER NOT EXISTS").count(), 4);
    }
}
