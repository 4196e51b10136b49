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

use feo_ontology::ns::sparql_prologue;
use feo_rdf::GraphView;
use feo_sparql::ast::Query;
use feo_sparql::{parse_query, plan_seeded, Plan, SparqlError};

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
