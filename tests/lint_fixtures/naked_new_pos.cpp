// naked-new positive fixture: an owning raw pointer.
struct Node {
  int value = 0;
};

int leak() {
  Node* node = new Node;
  const int v = node->value;
  delete node;
  return v;
}
