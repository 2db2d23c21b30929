// formatting negative fixture: spaces, LF endings, a final newline.
const char* kEscapedTab = "\t";
int spaced() { return 1; }
