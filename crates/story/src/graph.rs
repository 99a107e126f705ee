//! The validated story graph.

use crate::model::{ChoicePoint, ChoicePointId, Segment, SegmentEnd, SegmentId};
use std::collections::VecDeque;

/// Validation failure when constructing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A segment's id does not match its index.
    MisnumberedSegment(u16),
    /// A choice point's id does not match its index.
    MisnumberedChoicePoint(u16),
    /// A reference to a segment that does not exist.
    DanglingSegment(u16),
    /// A reference to a choice point that does not exist.
    DanglingChoicePoint(u16),
    /// A segment is unreachable from the start.
    Unreachable(u16),
    /// The graph contains a playback cycle (playback must terminate).
    Cycle,
    /// No ending is reachable.
    NoEnding,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::MisnumberedSegment(i) => write!(f, "segment {i} id mismatch"),
            GraphError::MisnumberedChoicePoint(i) => write!(f, "choice point {i} id mismatch"),
            GraphError::DanglingSegment(i) => write!(f, "reference to missing segment {i}"),
            GraphError::DanglingChoicePoint(i) => {
                write!(f, "reference to missing choice point {i}")
            }
            GraphError::Unreachable(i) => write!(f, "segment {i} unreachable"),
            GraphError::Cycle => write!(f, "story graph contains a cycle"),
            GraphError::NoEnding => write!(f, "no ending reachable"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, validated interactive film.
#[derive(Debug, Clone)]
pub struct StoryGraph {
    title: &'static str,
    segments: Vec<Segment>,
    choice_points: Vec<ChoicePoint>,
    start: SegmentId,
}

impl StoryGraph {
    /// Construct and validate.
    ///
    /// Invariants enforced: ids match indices, every reference resolves,
    /// every segment is reachable from `start`, the playback relation is
    /// acyclic, and at least one ending exists. (Real Bandersnatch has
    /// "go back and retry" loops; our reconstruction flattens them —
    /// see `bandersnatch` module docs.)
    pub fn new(
        title: &'static str,
        segments: Vec<Segment>,
        choice_points: Vec<ChoicePoint>,
        start: SegmentId,
    ) -> Result<Self, GraphError> {
        for (i, s) in segments.iter().enumerate() {
            if s.id.0 as usize != i {
                return Err(GraphError::MisnumberedSegment(s.id.0));
            }
        }
        for (i, cp) in choice_points.iter().enumerate() {
            if cp.id.0 as usize != i {
                return Err(GraphError::MisnumberedChoicePoint(cp.id.0));
            }
        }
        let seg_ok = |id: SegmentId| (id.0 as usize) < segments.len();
        if !seg_ok(start) {
            return Err(GraphError::DanglingSegment(start.0));
        }
        for s in &segments {
            match s.end {
                SegmentEnd::Continue(next) if !seg_ok(next) => {
                    return Err(GraphError::DanglingSegment(next.0));
                }
                SegmentEnd::Choice(cp) if (cp.0 as usize) >= choice_points.len() => {
                    return Err(GraphError::DanglingChoicePoint(cp.0));
                }
                _ => {}
            }
        }
        for cp in &choice_points {
            for opt in &cp.options {
                if !seg_ok(opt.target) {
                    return Err(GraphError::DanglingSegment(opt.target.0));
                }
            }
        }

        let graph = StoryGraph {
            title,
            segments,
            choice_points,
            start,
        };
        graph.check_reachability()?;
        graph.check_acyclic()?;
        if !graph.segments.iter().any(Segment::is_ending) {
            return Err(GraphError::NoEnding);
        }
        Ok(graph)
    }

    fn successors(&self, id: SegmentId) -> Vec<SegmentId> {
        match self.segment(id).end {
            SegmentEnd::Continue(next) => vec![next],
            SegmentEnd::Choice(cp) => {
                let [default, other] = &self.choice_point(cp).options;
                vec![default.target, other.target]
            }
            SegmentEnd::Ending => vec![],
        }
    }

    fn check_reachability(&self) -> Result<(), GraphError> {
        let mut seen = vec![false; self.segments.len()];
        let mut queue = VecDeque::from([self.start]);
        while let Some(id) = queue.pop_front() {
            match seen.get_mut(id.0 as usize) {
                Some(s) if !*s => *s = true,
                _ => continue,
            }
            queue.extend(self.successors(id));
        }
        match seen.iter().position(|s| !s) {
            Some(i) => Err(GraphError::Unreachable(i as u16)),
            None => Ok(()),
        }
    }

    fn check_acyclic(&self) -> Result<(), GraphError> {
        // Kahn's algorithm over the playback relation.
        let n = self.segments.len();
        let mut indegree = vec![0usize; n];
        for s in &self.segments {
            for next in self.successors(s.id) {
                if let Some(d) = indegree.get_mut(next.0 as usize) {
                    *d += 1;
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree.get(i) == Some(&0)).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop_front() {
            visited += 1;
            for next in self.successors(SegmentId(i as u16)) {
                let Some(d) = indegree.get_mut(next.0 as usize) else {
                    continue;
                };
                *d -= 1;
                if *d == 0 {
                    queue.push_back(next.0 as usize);
                }
            }
        }
        if visited == n {
            Ok(())
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Film title.
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// First segment of every viewing.
    pub fn start(&self) -> SegmentId {
        self.start
    }

    /// Segment lookup (ids are validated at construction).
    pub fn segment(&self, id: SegmentId) -> &Segment {
        // wm-lint: allow(panic/index, reason = "`new` rejects every dangling segment id in the graph, and a restored checkpoint's ids pass `Frontier::fits` first")
        &self.segments[id.0 as usize]
    }

    /// Choice point lookup.
    pub fn choice_point(&self, id: ChoicePointId) -> &ChoicePoint {
        // wm-lint: allow(panic/index, reason = "`new` rejects every dangling choice-point id in the graph, and a restored checkpoint's ids pass `Frontier::fits` first")
        &self.choice_points[id.0 as usize]
    }

    /// All segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// All choice points.
    pub fn choice_points(&self) -> &[ChoicePoint] {
        &self.choice_points
    }

    /// Endings.
    pub fn endings(&self) -> Vec<SegmentId> {
        self.segments
            .iter()
            .filter(|s| s.is_ending())
            .map(|s| s.id)
            .collect()
    }

    /// Maximum number of choice points on any path from the start — the
    /// upper bound on how many decisions a single viewing can leak.
    pub fn max_choices_on_path(&self) -> usize {
        // DFS with memoization; the graph is a DAG.
        fn depth(g: &StoryGraph, id: SegmentId, memo: &mut [Option<usize>]) -> usize {
            if let Some(&Some(d)) = memo.get(id.0 as usize) {
                return d;
            }
            let d = match g.segment(id).end {
                crate::model::SegmentEnd::Ending => 0,
                crate::model::SegmentEnd::Continue(next) => depth(g, next, memo),
                crate::model::SegmentEnd::Choice(cp) => {
                    let cp = g.choice_point(cp);
                    1 + cp
                        .options
                        .iter()
                        .map(|o| depth(g, o.target, memo))
                        .max()
                        .unwrap_or(0)
                }
            };
            if let Some(slot) = memo.get_mut(id.0 as usize) {
                *slot = Some(d);
            }
            d
        }
        let mut memo = vec![None; self.segments.len()];
        depth(self, self.start, &mut memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ChoiceOption, ChoiceTag};

    fn seg(id: u16, name: &'static str, end: SegmentEnd) -> Segment {
        Segment {
            id: SegmentId(id),
            name,
            duration_secs: 60,
            end,
        }
    }

    fn cp(id: u16, a: u16, b: u16) -> ChoicePoint {
        ChoicePoint {
            id: ChoicePointId(id),
            question: "?",
            options: [
                ChoiceOption {
                    label: "a",
                    target: SegmentId(a),
                    tags: &[ChoiceTag::Comfort],
                },
                ChoiceOption {
                    label: "b",
                    target: SegmentId(b),
                    tags: &[ChoiceTag::Novelty],
                },
            ],
        }
    }

    fn tiny() -> StoryGraph {
        StoryGraph::new(
            "tiny",
            vec![
                seg(0, "intro", SegmentEnd::Choice(ChoicePointId(0))),
                seg(1, "left", SegmentEnd::Ending),
                seg(2, "right", SegmentEnd::Continue(SegmentId(1))),
            ],
            vec![cp(0, 1, 2)],
            SegmentId(0),
        )
        .unwrap()
    }

    #[test]
    fn valid_graph_constructs() {
        let g = tiny();
        assert_eq!(g.endings(), vec![SegmentId(1)]);
        assert_eq!(g.max_choices_on_path(), 1);
        assert_eq!(g.start(), SegmentId(0));
    }

    #[test]
    fn rejects_dangling_segment() {
        let err = StoryGraph::new(
            "bad",
            vec![seg(0, "intro", SegmentEnd::Continue(SegmentId(9)))],
            vec![],
            SegmentId(0),
        )
        .unwrap_err();
        assert_eq!(err, GraphError::DanglingSegment(9));
    }

    #[test]
    fn rejects_dangling_choice_point() {
        let err = StoryGraph::new(
            "bad",
            vec![seg(0, "intro", SegmentEnd::Choice(ChoicePointId(3)))],
            vec![],
            SegmentId(0),
        )
        .unwrap_err();
        assert_eq!(err, GraphError::DanglingChoicePoint(3));
    }

    #[test]
    fn rejects_unreachable() {
        let err = StoryGraph::new(
            "bad",
            vec![
                seg(0, "intro", SegmentEnd::Ending),
                seg(1, "orphan", SegmentEnd::Ending),
            ],
            vec![],
            SegmentId(0),
        )
        .unwrap_err();
        assert_eq!(err, GraphError::Unreachable(1));
    }

    #[test]
    fn rejects_cycle() {
        let err = StoryGraph::new(
            "bad",
            vec![
                seg(0, "a", SegmentEnd::Continue(SegmentId(1))),
                seg(1, "b", SegmentEnd::Continue(SegmentId(0))),
            ],
            vec![],
            SegmentId(0),
        )
        .unwrap_err();
        assert_eq!(err, GraphError::Cycle);
    }

    #[test]
    fn rejects_misnumbered() {
        let err = StoryGraph::new(
            "bad",
            vec![Segment {
                id: SegmentId(5),
                name: "x",
                duration_secs: 1,
                end: SegmentEnd::Ending,
            }],
            vec![],
            SegmentId(0),
        )
        .unwrap_err();
        assert_eq!(err, GraphError::MisnumberedSegment(5));
    }

    #[test]
    fn rejects_no_ending() {
        // Single segment that chains forever is a cycle; a choice whose
        // branches converge on a non-ending is impossible in a DAG, so
        // NoEnding is only reachable with... it is not: a finite DAG
        // must have a sink, and sinks are endings by construction of
        // SegmentEnd. Verify the DAG+sink reasoning holds.
        let g = tiny();
        assert!(!g.endings().is_empty());
    }
}
