// Unit tests for the materialized graph view: construction, bi-directional
// linkage (id <-> topology <-> tuple pointer), adjacency semantics for
// directed and undirected views, and the §3.3 online-update protocol with
// referential-integrity enforcement.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "graph/csr_topology.h"
#include "graph/graph_view.h"
#include "graph/path.h"

namespace grfusion {
namespace {

class GraphViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto vt = catalog_.CreateTable(
        "V", Schema({Column("vid", ValueType::kBigInt),
                     Column("name", ValueType::kVarchar)}));
    ASSERT_TRUE(vt.ok());
    vertex_table_ = *vt;
    auto et = catalog_.CreateTable(
        "E", Schema({Column("eid", ValueType::kBigInt),
                     Column("s", ValueType::kBigInt),
                     Column("d", ValueType::kBigInt),
                     Column("w", ValueType::kDouble)}));
    ASSERT_TRUE(et.ok());
    edge_table_ = *et;
  }

  void AddVertexRow(int64_t id, const std::string& name) {
    ASSERT_TRUE(vertex_table_
                    ->Insert(Tuple({Value::BigInt(id), Value::Varchar(name)}))
                    .ok());
  }
  Status AddEdgeRow(int64_t id, int64_t s, int64_t d, double w = 1.0) {
    auto slot = edge_table_->Insert(Tuple(
        {Value::BigInt(id), Value::BigInt(s), Value::BigInt(d),
         Value::Double(w)}));
    return slot.ok() ? Status::OK() : slot.status();
  }

  GraphViewDef Def(bool directed) {
    GraphViewDef def;
    def.name = "G";
    def.directed = directed;
    def.vertex_table = "V";
    def.vertex_id_column = "vid";
    def.vertex_attributes = {{"name", "name"}};
    def.edge_table = "E";
    def.edge_id_column = "eid";
    def.edge_from_column = "s";
    def.edge_to_column = "d";
    def.edge_attributes = {{"w", "w"}};
    return def;
  }

  GraphView* Create(bool directed) {
    auto gv = catalog_.CreateGraphView(Def(directed));
    EXPECT_TRUE(gv.ok()) << gv.status().ToString();
    return gv.ok() ? *gv : nullptr;
  }

  Catalog catalog_;
  Table* vertex_table_ = nullptr;
  Table* edge_table_ = nullptr;
};

TEST_F(GraphViewTest, SinglePassConstruction) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  AddVertexRow(3, "c");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  ASSERT_TRUE(AddEdgeRow(11, 2, 3).ok());
  GraphView* gv = Create(true);
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->NumVertexes(), 3u);
  EXPECT_EQ(gv->NumEdges(), 2u);
}

TEST_F(GraphViewTest, BiDirectionalLinkage) {
  AddVertexRow(7, "seven");
  GraphView* gv = Create(true);
  const VertexEntry* v = gv->FindVertex(7);
  ASSERT_NE(v, nullptr);
  // Topology -> tuple pointer -> relational attributes.
  const Tuple* tuple = gv->VertexTuple(*v);
  ASSERT_NE(tuple, nullptr);
  EXPECT_EQ(tuple->value(1).AsVarchar(), "seven");
}

TEST_F(GraphViewTest, DirectedFanInFanOut) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  AddVertexRow(3, "c");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  ASSERT_TRUE(AddEdgeRow(11, 1, 3).ok());
  ASSERT_TRUE(AddEdgeRow(12, 3, 1).ok());
  GraphView* gv = Create(true);
  const VertexEntry* v1 = gv->FindVertex(1);
  EXPECT_EQ(gv->FanOut(*v1), 2u);
  EXPECT_EQ(gv->FanIn(*v1), 1u);
}

TEST_F(GraphViewTest, UndirectedNeighborsBothWays) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  GraphView* gv = Create(false);
  // Both endpoints see the edge; fan counts include both directions.
  for (VertexId id : {1, 2}) {
    const VertexEntry* v = gv->FindVertex(id);
    size_t neighbors = 0;
    VertexId other = 0;
    gv->ForEachNeighbor(*v, [&](const EdgeEntry&, VertexId nbr) {
      ++neighbors;
      other = nbr;
      return true;
    });
    EXPECT_EQ(neighbors, 1u);
    EXPECT_EQ(other, id == 1 ? 2 : 1);
    EXPECT_EQ(gv->FanOut(*v), 1u);
    EXPECT_EQ(gv->FanIn(*v), 1u);
  }
}

TEST_F(GraphViewTest, DuplicateVertexIdRejected) {
  AddVertexRow(1, "a");
  AddVertexRow(1, "dup");
  auto gv = catalog_.CreateGraphView(Def(true));
  EXPECT_FALSE(gv.ok());
  EXPECT_EQ(gv.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(GraphViewTest, EdgeWithMissingEndpointRejected) {
  AddVertexRow(1, "a");
  ASSERT_TRUE(AddEdgeRow(10, 1, 99).ok());
  auto gv = catalog_.CreateGraphView(Def(true));
  EXPECT_FALSE(gv.ok());
  EXPECT_EQ(gv.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(GraphViewTest, OnlineInsertAddsTopology) {
  AddVertexRow(1, "a");
  GraphView* gv = Create(true);
  AddVertexRow(2, "b");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  EXPECT_EQ(gv->NumVertexes(), 2u);
  EXPECT_EQ(gv->NumEdges(), 1u);
  EXPECT_NE(gv->FindEdge(10), nullptr);
}

TEST_F(GraphViewTest, OnlineEdgeInsertWithBadEndpointVetoed) {
  AddVertexRow(1, "a");
  GraphView* gv = Create(true);
  Status s = AddEdgeRow(10, 1, 42);
  EXPECT_FALSE(s.ok());
  // The veto must also roll the relational insert back.
  EXPECT_EQ(edge_table_->NumRows(), 0u);
  EXPECT_EQ(gv->NumEdges(), 0u);
}

TEST_F(GraphViewTest, DeleteVertexWithEdgesVetoed) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  GraphView* gv = Create(true);
  // Find vertex 1's slot and try to delete its row.
  TupleSlot victim = kInvalidTupleSlot;
  vertex_table_->ForEach([&](TupleSlot slot, const Tuple& tuple) {
    if (tuple.value(0).AsBigInt() == 1) victim = slot;
    return true;
  });
  Status s = vertex_table_->Delete(victim);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(gv->NumVertexes(), 2u);
  EXPECT_EQ(vertex_table_->NumRows(), 2u);
}

TEST_F(GraphViewTest, DeleteEdgeThenVertexSucceeds) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  GraphView* gv = Create(true);
  TupleSlot edge_slot = kInvalidTupleSlot;
  edge_table_->ForEach([&](TupleSlot slot, const Tuple&) {
    edge_slot = slot;
    return true;
  });
  ASSERT_TRUE(edge_table_->Delete(edge_slot).ok());
  EXPECT_EQ(gv->NumEdges(), 0u);
  const VertexEntry* v1 = gv->FindVertex(1);
  EXPECT_EQ(gv->FanOut(*v1), 0u);

  TupleSlot v_slot = kInvalidTupleSlot;
  vertex_table_->ForEach([&](TupleSlot slot, const Tuple& tuple) {
    if (tuple.value(0).AsBigInt() == 1) v_slot = slot;
    return true;
  });
  ASSERT_TRUE(vertex_table_->Delete(v_slot).ok());
  EXPECT_EQ(gv->NumVertexes(), 1u);
  EXPECT_EQ(gv->FindVertex(1), nullptr);
}

TEST_F(GraphViewTest, AttributeUpdateLeavesTopologyUntouched) {
  AddVertexRow(1, "old");
  GraphView* gv = Create(true);
  const VertexEntry* before = gv->FindVertex(1);
  TupleSlot slot = before->tuple;
  ASSERT_TRUE(vertex_table_
                  ->Update(slot, Tuple({Value::BigInt(1),
                                        Value::Varchar("new")}))
                  .ok());
  const VertexEntry* after = gv->FindVertex(1);
  EXPECT_EQ(after, before);
  EXPECT_EQ(gv->VertexTuple(*after)->value(1).AsVarchar(), "new");
}

TEST_F(GraphViewTest, VertexIdUpdateRenamesWhenIsolated) {
  AddVertexRow(1, "a");
  GraphView* gv = Create(true);
  TupleSlot slot = gv->FindVertex(1)->tuple;
  ASSERT_TRUE(
      vertex_table_
          ->Update(slot, Tuple({Value::BigInt(5), Value::Varchar("a")}))
          .ok());
  EXPECT_EQ(gv->FindVertex(1), nullptr);
  ASSERT_NE(gv->FindVertex(5), nullptr);
}

TEST_F(GraphViewTest, VertexIdUpdateVetoedWithIncidentEdges) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  GraphView* gv = Create(true);
  TupleSlot slot = gv->FindVertex(1)->tuple;
  Status s = vertex_table_->Update(
      slot, Tuple({Value::BigInt(5), Value::Varchar("a")}));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(gv->FindVertex(1), nullptr);
  EXPECT_EQ(gv->FindVertex(5), nullptr);
}

TEST_F(GraphViewTest, EdgeEndpointUpdateRelinksTopology) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  AddVertexRow(3, "c");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  GraphView* gv = Create(true);
  TupleSlot slot = gv->FindEdge(10)->tuple;
  ASSERT_TRUE(edge_table_
                  ->Update(slot, Tuple({Value::BigInt(10), Value::BigInt(1),
                                        Value::BigInt(3), Value::Double(2.0)}))
                  .ok());
  const EdgeEntry* e = gv->FindEdge(10);
  EXPECT_EQ(e->to, 3);
  EXPECT_EQ(gv->FanIn(*gv->FindVertex(2)), 0u);
  EXPECT_EQ(gv->FanIn(*gv->FindVertex(3)), 1u);
}

TEST_F(GraphViewTest, DropGraphViewDetachesListeners) {
  AddVertexRow(1, "a");
  ASSERT_TRUE(catalog_.CreateGraphView(Def(true)).ok());
  ASSERT_TRUE(catalog_.DropGraphView("G").ok());
  // Without the view, all relational mutations are unconstrained again.
  ASSERT_TRUE(AddEdgeRow(10, 1, 999).ok());
}

TEST_F(GraphViewTest, CatalogRejectsDropOfSourceTable) {
  AddVertexRow(1, "a");
  ASSERT_TRUE(catalog_.CreateGraphView(Def(true)).ok());
  auto s = catalog_.DropTable("V");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  ASSERT_TRUE(catalog_.DropGraphView("G").ok());
  EXPECT_TRUE(catalog_.DropTable("V").ok());
}

TEST_F(GraphViewTest, ExposedSchemasAndAttributeResolution) {
  AddVertexRow(1, "a");
  GraphView* gv = Create(true);
  Schema vs = gv->ExposedVertexSchema();
  EXPECT_EQ(vs.ToString(), "ID BIGINT, name VARCHAR, FANOUT BIGINT, FANIN BIGINT");
  Schema es = gv->ExposedEdgeSchema();
  EXPECT_EQ(es.ToString(),
            "ID BIGINT, FROM BIGINT, TO BIGINT, w DOUBLE");
  EXPECT_EQ(gv->ResolveVertexAttribute("name"), 1);
  EXPECT_EQ(gv->ResolveVertexAttribute("ID"), 0);
  EXPECT_EQ(gv->ResolveVertexAttribute("nope"), -1);
  EXPECT_EQ(gv->ResolveEdgeAttribute("w"), 3);
  EXPECT_EQ(gv->ResolveEdgeAttribute("FROM"), 1);
}

TEST_F(GraphViewTest, TopologyBytesIndependentOfAttributeSize) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  GraphView* gv = Create(true);
  size_t before = gv->TopologyBytes();
  // Blow up the attribute data; the topology footprint must not change.
  TupleSlot slot = gv->FindVertex(1)->tuple;
  ASSERT_TRUE(vertex_table_
                  ->Update(slot, Tuple({Value::BigInt(1),
                                        Value::Varchar(std::string(100000,
                                                                   'x'))}))
                  .ok());
  EXPECT_EQ(gv->TopologyBytes(), before);
}

namespace csr {

/// Canonical topology signature: per vertex, the sorted (edge, neighbor)
/// lists seen through the public enumeration API. Representation-independent
/// (CSR slices + edit vectors vs pure adjacency lists must agree).
std::string Signature(const GraphView& gv) {
  std::vector<std::string> lines;
  gv.ForEachVertex([&](const VertexEntry& v) {
    std::vector<std::string> out, in;
    gv.ForEachNeighbor(v, [&](const EdgeEntry& e, VertexId nbr) {
      out.push_back(std::to_string(e.id) + ">" + std::to_string(nbr));
      return true;
    });
    gv.ForEachIncidentEdge(v, [&](const EdgeEntry& e, VertexId nbr) {
      in.push_back(std::to_string(e.id) + "~" + std::to_string(nbr));
      return true;
    });
    std::sort(out.begin(), out.end());
    std::sort(in.begin(), in.end());
    std::string line = std::to_string(v.id) + ":";
    for (const std::string& s : out) line += s + ",";
    line += "|";
    for (const std::string& s : in) line += s + ",";
    lines.push_back(std::move(line));
    return true;
  });
  std::sort(lines.begin(), lines.end());
  std::string sig;
  for (const std::string& l : lines) sig += l + "\n";
  return sig;
}

}  // namespace csr

TEST_F(GraphViewTest, CsrSnapshotBuiltAtCreate) {
  AddVertexRow(1, "a");
  AddVertexRow(2, "b");
  AddVertexRow(3, "c");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  ASSERT_TRUE(AddEdgeRow(11, 2, 3).ok());
  GraphView* gv = Create(true);
  ASSERT_NE(gv, nullptr);
  ASSERT_NE(gv->csr(), nullptr);
  EXPECT_TRUE(gv->PureCsr());
  EXPECT_EQ(gv->csr()->NumVertexes(), 3u);
  EXPECT_EQ(gv->csr()->NumEdges(), 2u);
  EXPECT_GT(gv->CsrBytes(), 0u);
  EXPECT_EQ(gv->Folds(), 0u);
  // Degrees resolve through CSR slice lengths (no edit vectors yet).
  EXPECT_EQ(gv->FanOut(*gv->FindVertex(1)), 1u);
  EXPECT_EQ(gv->FanIn(*gv->FindVertex(3)), 1u);
}

TEST_F(GraphViewTest, CsrVertexLookupDirtySnapshotAndSparseIds) {
  // Ids too spread out for a dense map: the snapshot resolves them through
  // its sparse map.
  const std::vector<int64_t> ids = {-7, 3, 1000000007, int64_t{1} << 40};
  for (int64_t id : ids) AddVertexRow(id, "v" + std::to_string(id));
  ASSERT_TRUE(AddEdgeRow(1, 3, -7).ok());
  GraphView* gv = Create(true);
  ASSERT_NE(gv, nullptr);
  ASSERT_TRUE(gv->PureCsr());
  auto name_of = [&](int64_t id) -> std::string {
    const VertexEntry* v = gv->FindVertex(id);
    if (v == nullptr) return "<absent>";
    EXPECT_EQ(v->id, id);
    return gv->VertexTuple(*v)->value(1).AsVarchar();
  };
  for (int64_t id : ids) {
    EXPECT_NE(gv->csr()->IndexOf(id), CsrTopology::kAbsent) << id;
    EXPECT_EQ(name_of(id), "v" + std::to_string(id));
  }
  for (int64_t absent : {int64_t{0}, int64_t{4}, int64_t{-8},
                         int64_t{1000000006}}) {
    EXPECT_EQ(gv->FindVertex(absent), nullptr) << absent;
  }

  // A vertex added after the snapshot dirties it: lookups fall back to the
  // id hash map, which has the new vertex...
  AddVertexRow(5, "late");
  EXPECT_FALSE(gv->PureCsr());
  EXPECT_EQ(gv->csr()->IndexOf(5), CsrTopology::kAbsent);
  EXPECT_EQ(name_of(5), "late");
  // ...and drops a deleted one that the stale snapshot still lists.
  const int64_t gone = int64_t{1} << 40;
  ASSERT_TRUE(vertex_table_->Delete(gv->FindVertex(gone)->tuple).ok());
  EXPECT_NE(gv->csr()->IndexOf(gone), CsrTopology::kAbsent);
  EXPECT_EQ(gv->FindVertex(gone), nullptr);
  for (int64_t id : {int64_t{-7}, int64_t{3}, int64_t{1000000007}}) {
    EXPECT_EQ(name_of(id), "v" + std::to_string(id));
  }
  EXPECT_EQ(gv->FanOut(*gv->FindVertex(3)), 1u);
}

TEST_F(GraphViewTest, CsrWithEditVectorsMatchesRebuild) {
  // Seed a topology, snapshot it into CSR, then mutate online through the
  // table listeners: adds land in append vectors, deletes in tombstones.
  // Enumeration through the overlay must equal a from-scratch rebuild at
  // every step.
  for (int64_t i = 1; i <= 6; ++i) AddVertexRow(i, "v");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  ASSERT_TRUE(AddEdgeRow(11, 2, 3).ok());
  ASSERT_TRUE(AddEdgeRow(12, 3, 4).ok());
  ASSERT_TRUE(AddEdgeRow(13, 4, 1).ok());
  GraphView* gv = Create(true);
  ASSERT_NE(gv, nullptr);
  ASSERT_TRUE(gv->PureCsr());

  auto check = [&](const char* step) {
    auto rebuilt =
        GraphView::Create(gv->def(), gv->vertex_table(), gv->edge_table());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(csr::Signature(*gv), csr::Signature(**rebuilt)) << step;
  };

  // Append: new edge out of a snapshotted vertex.
  ASSERT_TRUE(AddEdgeRow(14, 1, 3).ok());
  EXPECT_FALSE(gv->PureCsr());  // Base edits dirty the snapshot.
  check("append edge");

  // Tombstone: remove a snapshot edge (slice entry must be skipped).
  ASSERT_TRUE(edge_table_->Delete(gv->FindEdge(11)->tuple).ok());
  check("remove snapshot edge");

  // Remove-then-re-add the same id: lands in both tombstone and append.
  ASSERT_TRUE(edge_table_->Delete(gv->FindEdge(12)->tuple).ok());
  ASSERT_TRUE(AddEdgeRow(12, 3, 5).ok());
  check("remove then re-add id");

  // Remove an appended (non-snapshot) edge again.
  ASSERT_TRUE(edge_table_->Delete(gv->FindEdge(14)->tuple).ok());
  check("remove appended edge");

  // New vertex + edges touching it (vertex has no CSR position at all).
  AddVertexRow(7, "w");
  ASSERT_TRUE(AddEdgeRow(20, 7, 1).ok());
  ASSERT_TRUE(AddEdgeRow(21, 5, 7).ok());
  check("new vertex with edges");

  // Degrees through the mixed representation.
  EXPECT_EQ(gv->FanOut(*gv->FindVertex(1)), 1u);   // 10 (14 removed).
  EXPECT_EQ(gv->FanIn(*gv->FindVertex(1)), 2u);    // 13, 20.
  EXPECT_EQ(gv->FanOut(*gv->FindVertex(7)), 1u);   // 20.
}

TEST_F(GraphViewTest, CsrUndirectedOverlayMatchesRebuild) {
  for (int64_t i = 1; i <= 5; ++i) AddVertexRow(i, "v");
  ASSERT_TRUE(AddEdgeRow(10, 1, 2).ok());
  ASSERT_TRUE(AddEdgeRow(11, 2, 3).ok());
  GraphView* gv = Create(false);
  ASSERT_NE(gv, nullptr);
  ASSERT_TRUE(AddEdgeRow(12, 3, 1).ok());
  ASSERT_TRUE(edge_table_->Delete(gv->FindEdge(10)->tuple).ok());
  auto rebuilt =
      GraphView::Create(gv->def(), gv->vertex_table(), gv->edge_table());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(csr::Signature(*gv), csr::Signature(**rebuilt));
  // Undirected neighbor count spans out + in slices and their edits.
  size_t n = 0;
  gv->ForEachNeighbor(*gv->FindVertex(3), [&](const EdgeEntry&, VertexId) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 2u);  // 11 (in slice) + 12 (append).
}

TEST(PathTest, PathStringRendering) {
  PathData path;
  path.vertexes = {1, 2, 3};
  path.edges = {10, 11};
  EXPECT_EQ(PathToString(path), "1 -[10]-> 2 -[11]-> 3");
  EXPECT_EQ(path.Length(), 2u);
  EXPECT_EQ(path.StartVertex(), 1);
  EXPECT_EQ(path.EndVertex(), 3);
}

}  // namespace
}  // namespace grfusion
